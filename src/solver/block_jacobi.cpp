#include "solver/block_jacobi.hpp"

#include <algorithm>
#include <cmath>

namespace drcm::solver {

BlockJacobi::BlockJacobi(const sparse::CsrMatrix& a, int num_blocks) {
  DRCM_CHECK(a.has_values(), "BlockJacobi needs matrix values");
  DRCM_CHECK(num_blocks >= 1, "need at least one block");
  const index_t n = a.n();
  const auto nb = static_cast<index_t>(std::min<index_t>(num_blocks, std::max<index_t>(n, 1)));

  nnz_t captured = 0;
  blocks_.reserve(static_cast<std::size_t>(nb));
  for (index_t b = 0; b < nb; ++b) {
    const index_t lo = b * n / nb;
    const index_t hi = (b + 1) * n / nb;
    if (lo == hi) continue;
    blocks_.push_back(factor_block(a, lo, hi, &shifted_pivots_));
    captured += static_cast<nnz_t>(blocks_.back().cols.size());
  }
  capture_fraction_ =
      a.nnz() > 0 ? static_cast<double>(captured) / static_cast<double>(a.nnz())
                  : 1.0;
}

BlockJacobi::BlockJacobi(const dist::RowBlockCsr& a) {
  const index_t m = a.local_rows();
  if (m > 0) {
    blocks_.push_back(factor_block(a, a.lo, a.hi, &shifted_pivots_));
    // z = M^{-1} r runs on the rank's local slabs: rebase to row 0.
    blocks_.back().lo = 0;
    blocks_.back().hi = m;
  }
  const nnz_t captured =
      blocks_.empty() ? 0 : static_cast<nnz_t>(blocks_.back().cols.size());
  capture_fraction_ = a.local_nnz() > 0
                          ? static_cast<double>(captured) /
                                static_cast<double>(a.local_nnz())
                          : 1.0;
}

template <class Rows>
BlockJacobi::Block BlockJacobi::factor_block(const Rows& rows, index_t lo,
                                             index_t hi, int* shifted_pivots) {
  Block blk;
  blk.lo = lo;
  blk.hi = hi;
  const index_t m = hi - lo;

  // Extract the diagonal block in local indices. A missing structural
  // diagonal gets a unit placeholder so the sweep stays defined.
  blk.row_ptr.assign(static_cast<std::size_t>(m) + 1, 0);
  blk.diag_pos.assign(static_cast<std::size_t>(m), -1);
  for (index_t i = 0; i < m; ++i) {
    const index_t gi = lo + i;
    const auto cols = rows.row(gi);
    const auto vals = rows.row_values(gi);
    bool saw_diag = false;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t gj = cols[k];
      if (gj < lo || gj >= hi) continue;
      const index_t j = gj - lo;
      if (!saw_diag && j > i) {
        blk.diag_pos[static_cast<std::size_t>(i)] =
            static_cast<nnz_t>(blk.cols.size());
        blk.cols.push_back(i);
        blk.vals.push_back(1.0);
        saw_diag = true;
      }
      if (j == i) {
        blk.diag_pos[static_cast<std::size_t>(i)] =
            static_cast<nnz_t>(blk.cols.size());
        saw_diag = true;
      }
      blk.cols.push_back(j);
      blk.vals.push_back(vals[k]);
    }
    if (!saw_diag) {
      blk.diag_pos[static_cast<std::size_t>(i)] =
          static_cast<nnz_t>(blk.cols.size());
      blk.cols.push_back(i);
      blk.vals.push_back(1.0);
    }
    blk.row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<nnz_t>(blk.cols.size());
  }

  // ILU(0), ikj variant restricted to the existing pattern, with a dense
  // position map (Saad, Iterative Methods for Sparse Linear Systems,
  // §10.3): pos[j] is the slot of column j in row i while row i is being
  // eliminated, -1 elsewhere. Scatter, update, clear — O(1) per update
  // instead of a search of row i.
  std::vector<nnz_t> pos(static_cast<std::size_t>(m), -1);
  // The map cell of the column stored at slot kk.
  const auto slot_of = [&](nnz_t kk) -> nnz_t& {
    return pos[static_cast<std::size_t>(blk.cols[static_cast<std::size_t>(kk)])];
  };
  constexpr double kPivotFloor = 1e-12;
  for (index_t i = 0; i < m; ++i) {
    const nnz_t row_begin = blk.row_ptr[static_cast<std::size_t>(i)];
    const nnz_t row_end = blk.row_ptr[static_cast<std::size_t>(i) + 1];
    for (nnz_t kk = row_begin; kk < row_end; ++kk) slot_of(kk) = kk;
    for (nnz_t kk = row_begin; kk < row_end; ++kk) {
      const index_t k = blk.cols[static_cast<std::size_t>(kk)];
      if (k >= i) break;
      // Earlier rows are fully factored with their diagonal already
      // shifted onto the pivot floor, so the pivot is read as stored.
      const double pivot = blk.vals[static_cast<std::size_t>(
          blk.diag_pos[static_cast<std::size_t>(k)])];
      const double lik = blk.vals[static_cast<std::size_t>(kk)] / pivot;
      blk.vals[static_cast<std::size_t>(kk)] = lik;
      // a_ij -= l_ik * u_kj for j > k present in both rows i and k.
      for (nnz_t kj = blk.diag_pos[static_cast<std::size_t>(k)] + 1;
           kj < blk.row_ptr[static_cast<std::size_t>(k) + 1]; ++kj) {
        const nnz_t ij = slot_of(kj);
        if (ij >= 0) {
          blk.vals[static_cast<std::size_t>(ij)] -=
              lik * blk.vals[static_cast<std::size_t>(kj)];
        }
      }
    }
    for (nnz_t kk = row_begin; kk < row_end; ++kk) slot_of(kk) = -1;
    // Row i is final: a vanishing diagonal is shifted IN STORAGE to the
    // pivot floor (later rows divide by it, apply() divides by it) and the
    // fallback is recorded so callers can see the factorization was not
    // the exact ILU(0) of the input.
    double& diag = blk.vals[static_cast<std::size_t>(
        blk.diag_pos[static_cast<std::size_t>(i)])];
    if (std::abs(diag) < kPivotFloor) {
      diag = diag < 0 ? -kPivotFloor : kPivotFloor;
      if (shifted_pivots) ++*shifted_pivots;
    }
  }
  return blk;
}

void BlockJacobi::apply(std::span<const double> r, std::span<double> z) const {
  DRCM_CHECK(r.size() == z.size(), "apply dimension mismatch");
  const auto nb = static_cast<std::int64_t>(blocks_.size());
  // A single block (dist_pcg's one block per rank) runs on the calling
  // thread: forking a team there would park idle OpenMP workers on the
  // cores the other rank threads need, once per CG iteration.
#pragma omp parallel for schedule(dynamic, 1) if (nb > 1)
  for (std::int64_t b = 0; b < nb; ++b) {
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    const index_t m = blk.hi - blk.lo;
    // Forward solve L y = r (unit diagonal; y stored into z).
    for (index_t i = 0; i < m; ++i) {
      double sum = r[static_cast<std::size_t>(blk.lo + i)];
      for (nnz_t k = blk.row_ptr[static_cast<std::size_t>(i)];
           k < blk.diag_pos[static_cast<std::size_t>(i)]; ++k) {
        sum -= blk.vals[static_cast<std::size_t>(k)] *
               z[static_cast<std::size_t>(blk.lo +
                                          blk.cols[static_cast<std::size_t>(k)])];
      }
      z[static_cast<std::size_t>(blk.lo + i)] = sum;
    }
    // Backward solve U z = y. Diagonals were shifted onto the pivot floor
    // at factor time, so the stored value divides safely as-is.
    for (index_t i = m; i-- > 0;) {
      double sum = z[static_cast<std::size_t>(blk.lo + i)];
      const nnz_t dp = blk.diag_pos[static_cast<std::size_t>(i)];
      for (nnz_t k = dp + 1; k < blk.row_ptr[static_cast<std::size_t>(i) + 1];
           ++k) {
        sum -= blk.vals[static_cast<std::size_t>(k)] *
               z[static_cast<std::size_t>(blk.lo +
                                          blk.cols[static_cast<std::size_t>(k)])];
      }
      z[static_cast<std::size_t>(blk.lo + i)] =
          sum / blk.vals[static_cast<std::size_t>(dp)];
    }
  }
}

}  // namespace drcm::solver
