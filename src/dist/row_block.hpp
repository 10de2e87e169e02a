// PETSc-style 1D contiguous row-block storage: the layout dist_pcg solves
// on. Rank r of a p-rank world owns global rows [r*n/p, (r+1)*n/p), stored
// as a local CSR slab with GLOBAL column ids (ascending within each row)
// and one value per entry.
//
// This is the hand-off format between the 2D-partitioned ordering world
// (DistSpMat, sqrt(p) x sqrt(p) grid) and the 1D solver world:
// redistribute_to_row_blocks in redistribute.{hpp,cpp} relabels the
// balanced-2D input and routes it into these blocks with one alltoallv, so
// the RCM -> permute -> CG pipeline never gathers a replicated CSR.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace drcm::dist {

/// First row of rank r's contiguous block when n rows split over p ranks —
/// the slicing rule run_dist_pcg cuts its fixture by, so a matrix re-owned
/// through redistribute_to_row_blocks lands on identical blocks.
inline index_t row_block_lo(index_t n, int p, int r) {
  return (static_cast<index_t>(r) * n) / p;
}

/// World rank owning global row g under the row_block_lo slicing.
inline int row_block_owner(index_t n, int p, index_t g) {
  DRCM_DCHECK(g >= 0 && g < n);
  int b = static_cast<int>((static_cast<long double>(g) * p) / n);
  if (b >= p) b = p - 1;
  while (b > 0 && row_block_lo(n, p, b) > g) --b;
  while (b + 1 < p && row_block_lo(n, p, b + 1) <= g) ++b;
  return b;
}

struct RowBlockCsr {
  index_t n = 0;        ///< global dimension
  index_t lo = 0;       ///< first owned global row
  index_t hi = 0;       ///< one past the last owned global row
  std::vector<nnz_t> row_ptr;  ///< local_rows() + 1 offsets
  std::vector<index_t> cols;   ///< GLOBAL column ids, ascending per row
  std::vector<double> vals;    ///< one value per entry

  index_t local_rows() const { return hi - lo; }
  nnz_t local_nnz() const { return static_cast<nnz_t>(cols.size()); }

  /// Global column ids of owned row g (g in [lo, hi)).
  std::span<const index_t> row(index_t g) const {
    DRCM_DCHECK(g >= lo && g < hi);
    const auto b = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(g - lo)]);
    const auto e = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(g - lo) + 1]);
    return {cols.data() + b, e - b};
  }

  /// Values of owned row g, parallel to row(g).
  std::span<const double> row_values(index_t g) const {
    DRCM_DCHECK(g >= lo && g < hi);
    const auto b = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(g - lo)]);
    const auto e = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(g - lo) + 1]);
    return {vals.data() + b, e - b};
  }

  /// Scalar slots this block keeps resident (for the mpsim ledger).
  std::uint64_t resident_elements() const {
    return static_cast<std::uint64_t>(row_ptr.size() + cols.size() +
                                      vals.size());
  }
};

}  // namespace drcm::dist
