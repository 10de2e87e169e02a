#include "dist/dist_matrix.hpp"

namespace drcm::dist {

DistSpMat::DistSpMat(ProcGrid2D& grid, const sparse::CsrMatrix& a)
    : dist_(a.n(), grid.q()), cuts_(dist_) {
  row_lo_ = dist_.chunk_lo(grid.row());
  row_hi_ = dist_.chunk_lo(grid.row() + 1);
  col_lo_ = dist_.chunk_lo(grid.col());
  col_hi_ = dist_.chunk_lo(grid.col() + 1);
  const auto [own_lo, own_hi] = dist_.owned_range(grid.row(), grid.col());

  // Local column g - col_lo is row g cut to my row chunk, already
  // ascending (the pattern is symmetric): one pass over my column chunk's
  // rows, appending each cut and closing its column. A row is scanned up
  // to the cut's end: a forward scan mispredicts once per cut edge, a
  // binary search about half its steps. The chunk's rows hold every entry
  // of the block, so their total reserves it in one allocation (exact at
  // q = 1); pages past the block's end stay untouched. Growing by
  // reallocation instead re-faults every page it copies.
  const auto rp = a.row_ptr();
  rows_.reserve(static_cast<std::size_t>(rp[static_cast<std::size_t>(col_hi_)] -
                                         rp[static_cast<std::size_t>(col_lo_)]));
  col_ptr_.reserve(static_cast<std::size_t>(local_cols()) + 1);
  owned_degrees_.reserve(static_cast<std::size_t>(own_hi - own_lo));
  for (index_t g = col_lo_; g < col_hi_; ++g) {
    const auto row = a.row(g);
    auto it = row.begin();
    while (it != row.end() && *it < row_lo_) ++it;
    for (; it != row.end() && *it < row_hi_; ++it) rows_.push_back(*it - row_lo_);
    col_ptr_.push_back(static_cast<nnz_t>(rows_.size()));
    if (g >= own_lo && g < own_hi) {
      owned_degrees_.push_back(static_cast<index_t>(row.size()));
    }
  }
}

nnz_t DistSpMat::global_nnz(mps::Comm& world) const {
  return world.allreduce(local_nnz(), [](nnz_t a, nnz_t b) { return a + b; });
}

DistDenseVec DistSpMat::degrees(ProcGrid2D& grid) const {
  DistDenseVec d(dist_, grid, 0);
  DRCM_CHECK(static_cast<std::size_t>(d.local_size()) == owned_degrees_.size(),
             "degree vector requested on another grid than the block's");
  for (index_t g = d.lo(); g < d.hi(); ++g) {
    d.set(g, owned_degrees_[static_cast<std::size_t>(g - d.lo())]);
  }
  grid.world().charge_compute(static_cast<double>(d.local_size()));
  return d;
}

}  // namespace drcm::dist
