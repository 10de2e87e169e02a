#include "solver/block_jacobi.hpp"

#include <algorithm>
#include <cmath>

namespace drcm::solver {

IluPattern ilu0_pattern(std::span<const nnz_t> row_ptr,
                        std::span<const index_t> cols, index_t col_lo) {
  DRCM_CHECK(!row_ptr.empty(), "ILU(0) pattern needs m + 1 row offsets");
  IluPattern pat;
  const index_t m = static_cast<index_t>(row_ptr.size()) - 1;
  // A missing structural diagonal gets a unit placeholder so the sweep
  // stays defined.
  pat.row_ptr.assign(static_cast<std::size_t>(m) + 1, 0);
  pat.diag_pos.assign(static_cast<std::size_t>(m), -1);
  const auto push = [&](index_t j, nnz_t src) {
    pat.cols.push_back(j);
    pat.src.push_back(src);
  };
  for (index_t i = 0; i < m; ++i) {
    bool saw_diag = false;
    for (nnz_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = cols[static_cast<std::size_t>(k)] - col_lo;
      if (j < 0 || j >= m) continue;
      if (!saw_diag && j > i) {
        pat.diag_pos[static_cast<std::size_t>(i)] =
            static_cast<nnz_t>(pat.cols.size());
        push(i, IluPattern::kPlaceholder);
        saw_diag = true;
      }
      if (j == i) {
        pat.diag_pos[static_cast<std::size_t>(i)] =
            static_cast<nnz_t>(pat.cols.size());
        saw_diag = true;
      }
      push(j, k);
    }
    if (!saw_diag) {
      pat.diag_pos[static_cast<std::size_t>(i)] =
          static_cast<nnz_t>(pat.cols.size());
      push(i, IluPattern::kPlaceholder);
    }
    pat.row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<nnz_t>(pat.cols.size());
  }
  return pat;
}

std::vector<double> ilu0_factor(const IluPattern& pat,
                                std::span<const double> values,
                                int* shifted_pivots) {
  std::vector<double> vals(pat.src.size());
  for (std::size_t s = 0; s < vals.size(); ++s) {
    vals[s] = pat.src[s] == IluPattern::kPlaceholder
                  ? 1.0
                  : values[static_cast<std::size_t>(pat.src[s])];
  }

  // ILU(0), ikj variant restricted to the existing pattern, with a dense
  // position map (Saad, Iterative Methods for Sparse Linear Systems,
  // §10.3): pos[j] is the slot of column j in row i while row i is being
  // eliminated, -1 elsewhere. Scatter, update, clear — O(1) per update
  // instead of a search of row i.
  const index_t m = pat.rows();
  std::vector<nnz_t> pos(static_cast<std::size_t>(m), -1);
  // The map cell of the column stored at slot kk.
  const auto slot_of = [&](nnz_t kk) -> nnz_t& {
    return pos[static_cast<std::size_t>(pat.cols[static_cast<std::size_t>(kk)])];
  };
  constexpr double kPivotFloor = 1e-12;
  for (index_t i = 0; i < m; ++i) {
    const nnz_t row_begin = pat.row_ptr[static_cast<std::size_t>(i)];
    const nnz_t row_end = pat.row_ptr[static_cast<std::size_t>(i) + 1];
    for (nnz_t kk = row_begin; kk < row_end; ++kk) slot_of(kk) = kk;
    for (nnz_t kk = row_begin; kk < row_end; ++kk) {
      const index_t k = pat.cols[static_cast<std::size_t>(kk)];
      if (k >= i) break;
      // Earlier rows are fully factored with their diagonal already
      // shifted onto the pivot floor, so the pivot is read as stored.
      const double pivot = vals[static_cast<std::size_t>(
          pat.diag_pos[static_cast<std::size_t>(k)])];
      const double lik = vals[static_cast<std::size_t>(kk)] / pivot;
      vals[static_cast<std::size_t>(kk)] = lik;
      // a_ij -= l_ik * u_kj for j > k present in both rows i and k.
      for (nnz_t kj = pat.diag_pos[static_cast<std::size_t>(k)] + 1;
           kj < pat.row_ptr[static_cast<std::size_t>(k) + 1]; ++kj) {
        const nnz_t ij = slot_of(kj);
        if (ij >= 0) {
          vals[static_cast<std::size_t>(ij)] -=
              lik * vals[static_cast<std::size_t>(kj)];
        }
      }
    }
    for (nnz_t kk = row_begin; kk < row_end; ++kk) slot_of(kk) = -1;
    // Row i is final: a vanishing diagonal is shifted IN STORAGE to the
    // pivot floor (later rows divide by it, the solve divides by it) and
    // the fallback is recorded so callers can see the factorization was
    // not the exact ILU(0) of the input.
    double& diag = vals[static_cast<std::size_t>(
        pat.diag_pos[static_cast<std::size_t>(i)])];
    if (std::abs(diag) < kPivotFloor) {
      diag = diag < 0 ? -kPivotFloor : kPivotFloor;
      if (shifted_pivots) ++*shifted_pivots;
    }
  }
  return vals;
}

void ilu0_solve(const IluPattern& pat, std::span<const double> factor,
                std::span<const double> r, std::span<double> z) {
  const index_t m = pat.rows();
  // Forward solve L y = r (unit diagonal; y stored into z).
  for (index_t i = 0; i < m; ++i) {
    double sum = r[static_cast<std::size_t>(i)];
    for (nnz_t k = pat.row_ptr[static_cast<std::size_t>(i)];
         k < pat.diag_pos[static_cast<std::size_t>(i)]; ++k) {
      sum -= factor[static_cast<std::size_t>(k)] *
             z[static_cast<std::size_t>(pat.cols[static_cast<std::size_t>(k)])];
    }
    z[static_cast<std::size_t>(i)] = sum;
  }
  // Backward solve U z = y. Diagonals were shifted onto the pivot floor
  // at factor time, so the stored value divides safely as-is.
  for (index_t i = m; i-- > 0;) {
    double sum = z[static_cast<std::size_t>(i)];
    const nnz_t dp = pat.diag_pos[static_cast<std::size_t>(i)];
    for (nnz_t k = dp + 1; k < pat.row_ptr[static_cast<std::size_t>(i) + 1];
         ++k) {
      sum -= factor[static_cast<std::size_t>(k)] *
             z[static_cast<std::size_t>(pat.cols[static_cast<std::size_t>(k)])];
    }
    z[static_cast<std::size_t>(i)] =
        sum / factor[static_cast<std::size_t>(dp)];
  }
}

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
    Block blk;
    blk.lo = lo;
    blk.hi = hi;
    // Row offsets into the whole matrix, so each slot's source is its
    // position in a.values().
    blk.pattern = ilu0_pattern(
        a.row_ptr().subspan(static_cast<std::size_t>(lo),
                            static_cast<std::size_t>(hi - lo) + 1),
        a.col_idx(), lo);
    blk.factor = ilu0_factor(blk.pattern, a.values(), &shifted_pivots_);
    captured += static_cast<nnz_t>(blk.pattern.cols.size());
    blocks_.push_back(std::move(blk));
  }
  capture_fraction_ =
      a.nnz() > 0 ? static_cast<double>(captured) / static_cast<double>(a.nnz())
                  : 1.0;
}

void BlockJacobi::apply(std::span<const double> r, std::span<double> z) const {
  DRCM_CHECK(r.size() == z.size(), "apply dimension mismatch");
  const auto nb = static_cast<std::int64_t>(blocks_.size());
#pragma omp parallel for schedule(dynamic, 1) if (nb > 1)
  for (std::int64_t b = 0; b < nb; ++b) {
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    const auto lo = static_cast<std::size_t>(blk.lo);
    const auto m = static_cast<std::size_t>(blk.hi - blk.lo);
    ilu0_solve(blk.pattern, blk.factor, r.subspan(lo, m), z.subspan(lo, m));
  }
}

}  // namespace drcm::solver
