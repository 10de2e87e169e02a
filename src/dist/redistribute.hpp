// Permutation-driven re-owning: apply a relabeling to distributed data
// without ever gathering it — the paper's conclusion pipeline ("the matrix
// can be permuted in place in parallel").
//
// Every entry knows its destination arithmetically (the 1D row-block map of
// its NEW index), so one alltoallv moves everything straight to its solver
// owner and a local rebuild restores the invariants. Labels come in one
// form, the replicated vector rcm::dist_order returns (labels[v] = new
// index of v); each rank reads only the entries of its own chunks.
#pragma once

#include <vector>

#include "dist/dist_vector.hpp"
#include "dist/row_block.hpp"
#include "sparse/csr.hpp"

namespace drcm::dist {

/// Result of the one-shot permute + re-own streaming redistribution.
struct OneShotRowBlocks {
  RowBlockCsr block;
  /// max |labels[r] - labels[c]| over all entries — the permuted bandwidth,
  /// folded into the routing loop so no second pass over the entries (and
  /// no permuted-2D intermediate to take it from) is needed.
  index_t bandwidth = 0;
};

/// One-shot streaming redistribution: this rank streams the entries of its
/// balanced-2D block of `a` (rows and columns restricted to its grid chunk)
/// as relabeled (row, col, value) triples routed straight to the 1D owner
/// of each NEW row — ONE alltoallv, and no permuted-2D intermediate, whose
/// q diagonal blocks would concentrate Θ(nnz/q) of the banded output. The
/// input block is consumed as a coordinate stream (3 nnz/p words, no O(n/q)
/// column pointer), so the whole step stays O(nnz/p + n/p) resident per
/// rank. The receive path counts entries by row over the owned range and
/// sorts each row's few entries by column — (row, col) keys are unique
/// under a bijective relabeling — so rank r's block is exactly rows
/// [lo, hi) of sparse::permute_symmetric(a, labels), values bit for bit.
/// `a` must carry values unless it has no entries. Collective on the grid's
/// world.
OneShotRowBlocks redistribute_to_row_blocks(const sparse::CsrMatrix& a,
                                            const std::vector<index_t>& labels,
                                            ProcGrid2D& grid);

/// One-shot vector arm: routes each owned element g of the 2D-distributed
/// vector to the 1D row-block owner of labels[g] in one alltoallv and
/// returns this rank's solver slab (slab[labels[g] - lo] = v[g] for
/// re-owned g). The rhs thus goes fixture -> O(n/p) 2D slab -> O(n/p) 1D
/// slab without any rank ever holding a replicated copy. Collective on
/// `world`, the grid's world communicator. When `ws` is non-null the send
/// staging checks out of the workspace, so repeat solves with the same
/// shape run the exchange without reallocating.
std::vector<double> redistribute_to_row_slab(const DistDenseVecD& v,
                                             const std::vector<index_t>& labels,
                                             mps::Comm& world,
                                             DistWorkspace* ws = nullptr);

}  // namespace drcm::dist
