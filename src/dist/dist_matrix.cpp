#include "dist/dist_matrix.hpp"

#include <algorithm>

namespace drcm::dist {

DistSpMat::DistSpMat(ProcGrid2D& grid, const sparse::CsrMatrix& a)
    : dist_(a.n(), grid.q()) {
  row_lo_ = dist_.chunk_lo(grid.row());
  row_hi_ = dist_.chunk_lo(grid.row() + 1);
  col_lo_ = dist_.chunk_lo(grid.col());
  col_hi_ = dist_.chunk_lo(grid.col() + 1);

  // Two passes over my row slab: count per local column, then fill.
  // Iterating rows in ascending order leaves every column's row list
  // sorted without any sort.
  const auto ncols = static_cast<std::size_t>(local_cols());
  std::vector<nnz_t> count(ncols, 0);
  for (index_t gr = row_lo_; gr < row_hi_; ++gr) {
    const auto cols = a.row(gr);
    const auto first = std::lower_bound(cols.begin(), cols.end(), col_lo_);
    for (auto it = first; it != cols.end() && *it < col_hi_; ++it) {
      ++count[static_cast<std::size_t>(*it - col_lo_)];
    }
  }
  col_ptr_.assign(ncols + 1, 0);
  for (std::size_t c = 0; c < ncols; ++c) {
    col_ptr_[c + 1] = col_ptr_[c] + count[c];
  }
  rows_.resize(static_cast<std::size_t>(col_ptr_[ncols]));
  std::vector<nnz_t> next(col_ptr_.begin(), col_ptr_.end() - 1);
  for (index_t gr = row_lo_; gr < row_hi_; ++gr) {
    const auto cols = a.row(gr);
    const auto first = std::lower_bound(cols.begin(), cols.end(), col_lo_);
    for (auto it = first; it != cols.end() && *it < col_hi_; ++it) {
      const auto lc = static_cast<std::size_t>(*it - col_lo_);
      rows_[static_cast<std::size_t>(next[lc]++)] = gr - row_lo_;
    }
  }
}

nnz_t DistSpMat::global_nnz(mps::Comm& world) const {
  return world.allreduce(local_nnz(), [](nnz_t a, nnz_t b) { return a + b; });
}

DistDenseVec DistSpMat::degrees(ProcGrid2D& grid) const {
  // Per-local-column entry counts of my block; summing the q blocks of my
  // processor column yields the full column count == vertex degree.
  const auto ncols = static_cast<std::size_t>(local_cols());
  std::vector<index_t> count(ncols);
  for (std::size_t c = 0; c < ncols; ++c) {
    count[c] = static_cast<index_t>(col_ptr_[c + 1] - col_ptr_[c]);
  }
  const auto all = grid.col_comm().allgatherv(std::span<const index_t>(count));
  DRCM_CHECK(all.size() == ncols * static_cast<std::size_t>(grid.q()),
             "column blocks must share one chunk");
  std::vector<index_t> sum(ncols, 0);
  for (int b = 0; b < grid.q(); ++b) {
    const std::size_t base = static_cast<std::size_t>(b) * ncols;
    for (std::size_t c = 0; c < ncols; ++c) {
      // Receive-path range check (always on): a block's entry count per
      // column is bounded by its row-chunk size; the summed degrees size
      // counting-sort bins downstream.
      DRCM_CHECK(all[base + c] >= 0 && all[base + c] <= n(),
                 "received column count out of range");
      sum[c] += all[base + c];
    }
  }
  DistDenseVec d(dist_, grid, 0);
  for (index_t g = d.lo(); g < d.hi(); ++g) {
    d.set(g, sum[static_cast<std::size_t>(g - col_lo_)]);
  }
  grid.world().charge_compute(static_cast<double>(ncols) * (grid.q() + 1));
  return d;
}

}  // namespace drcm::dist
