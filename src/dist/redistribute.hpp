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

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/dist_vector.hpp"
#include "dist/row_block.hpp"
#include "sparse/csr.hpp"

namespace drcm::dist {

/// One step of the order-dependent digest of a rank's balanced-2D input
/// window: entries fold in walk order (rows ascending, columns ascending
/// within a row). Unlike the fingerprint's partition-invariant sum, a
/// window holding other entries, or the same entries split differently
/// across rows, digests differently — the guard a cached solver::SolvePlan
/// is checked against before a request reuses its receive-slot map.
inline std::uint64_t window_digest_step(std::uint64_t digest, index_t row,
                                        index_t col) {
  const std::uint64_t entry =
      static_cast<std::uint64_t>(row) * 0x9e3779b97f4a7c15ULL ^
      static_cast<std::uint64_t>(col);
  return (std::rotl(digest, 23) ^ entry) * 0xbf58476d1ce4e5b9ULL;
}

/// Result of the one-shot permute + re-own streaming redistribution.
struct OneShotRowBlocks {
  RowBlockCsr block;
  /// max |labels[r] - labels[c]| over all entries — the permuted bandwidth,
  /// folded into the routing loop so no second pass over the entries (and
  /// no permuted-2D intermediate to take it from) is needed.
  index_t bandwidth = 0;
  /// Arrival index (position in the received stream) of the entry stored at
  /// each block slot: the inverse of the receive-slot map a
  /// solver::SolvePlan is built from.
  std::vector<nnz_t> origin;
  /// window_digest_step folded over this rank's input window.
  std::uint64_t window_digest = 0;
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
/// The result also records where each arrival landed (`origin`) and the
/// digest of the input window, the two things a cached solve plan needs.
/// `a` must carry values unless it has no entries. Collective on the grid's
/// world.
OneShotRowBlocks redistribute_to_row_blocks(const sparse::CsrMatrix& a,
                                            const std::vector<index_t>& labels,
                                            ProcGrid2D& grid);

/// The value-only arm of the same route, for a pattern whose plan is
/// cached: the same window walk under the same labels, but each entry
/// ships its value alone (one word instead of a three-word triple) and no
/// bandwidth allreduce runs. Values arrive in exactly the order
/// redistribute_to_row_blocks delivers its triples on the same pattern, so
/// the value of block slot s of that run is the origin[s]-th received here.
/// Returns the received values in arrival order. Collective on the grid's
/// world.
std::vector<double> route_row_block_values(const sparse::CsrMatrix& a,
                                           const std::vector<index_t>& labels,
                                           ProcGrid2D& grid);

/// One-shot vector arm: routes each owned element g of the 2D-distributed
/// vector to the 1D row-block owner of labels[g] in one alltoallv and
/// returns this rank's solver slab (slab[labels[g] - lo] = v[g] for
/// re-owned g). The rhs thus goes fixture -> O(n/p) 2D slab -> O(n/p) 1D
/// slab without any rank ever holding a replicated copy. Collective on
/// `world`, the grid's world communicator. When `ws` is non-null the send
/// staging checks out of the workspace, so repeat solves with the same
/// shape run the exchange without reallocating. `slot_out`, when
/// non-null, receives the slab offset of the k-th received element — the
/// rhs half of a solve plan's receive-slot map.
std::vector<double> redistribute_to_row_slab(
    const DistDenseVecD& v, const std::vector<index_t>& labels,
    mps::Comm& world, DistWorkspace* ws = nullptr,
    std::vector<index_t>* slot_out = nullptr);

/// The value-only arm of redistribute_to_row_slab under the same labels
/// and world: one word per element, the k-th arrival placed at
/// slab[slot[k]] (`slot` as recorded by redistribute_to_row_slab), staged
/// in `ws`. Collective on `world`.
std::vector<double> route_to_row_slab(const DistDenseVecD& v,
                                      const std::vector<index_t>& labels,
                                      mps::Comm& world,
                                      std::span<const index_t> slot,
                                      DistWorkspace& ws);

}  // namespace drcm::dist
