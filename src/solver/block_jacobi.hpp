// Block Jacobi preconditioner with ILU(0) sub-solvers — the PETSc
// configuration behind the paper's Figure 1.
//
// Rows are split into `num_blocks` contiguous blocks (PETSc: one block per
// process). Each diagonal block is factored with zero-fill incomplete LU;
// applying the preconditioner is an independent forward/backward sweep per
// block.
//
// This is precisely the component that makes ordering matter: with an RCM
// ordering the matrix's couplings are concentrated inside the diagonal
// blocks, so the block factorizations capture almost the whole operator
// (fewer CG iterations); with a scattered "natural" ordering most couplings
// cross block boundaries and the preconditioner degrades.
//
// One block's factorization is split in two halves. The SYMBOLIC half
// (IluPattern) depends only on the sparsity pattern: the block's entries in
// local indices, a unit placeholder on every structurally missing diagonal,
// and where in the caller's value array each entry's value lives. The
// NUMERIC half (ilu0_factor) gathers the values through that map and
// eliminates. dist_pcg keeps the pattern in its per-rank solve plan, so a
// repeated pattern refactors values only.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace drcm::solver {

/// The symbolic half of one ILU(0) block of m rows.
struct IluPattern {
  /// Value source of a unit placeholder diagonal.
  static constexpr nnz_t kPlaceholder = -1;

  std::vector<nnz_t> row_ptr;   ///< m + 1 offsets
  std::vector<index_t> cols;    ///< local column ids, ascending per row
  std::vector<nnz_t> diag_pos;  ///< slot of row i's diagonal in `cols`
  /// Position of each slot's value in the caller's value array, or
  /// kPlaceholder for an inserted unit diagonal.
  std::vector<nnz_t> src;

  index_t rows() const { return static_cast<index_t>(diag_pos.size()); }
  std::uint64_t resident_elements() const {
    return static_cast<std::uint64_t>(row_ptr.size() + cols.size() +
                                      diag_pos.size() + src.size());
  }
};

/// Pattern of an m-row block: row i holds the entries k in
/// [row_ptr[i], row_ptr[i + 1]) whose column cols[k] - col_lo falls in
/// [0, m), in their stored (strictly ascending) order; an entry's value
/// source is k itself. `row_ptr` has m + 1 entries.
IluPattern ilu0_pattern(std::span<const nnz_t> row_ptr,
                        std::span<const index_t> cols, index_t col_lo);

/// The numeric half: gathers values[src] (1.0 on placeholders) and factors
/// in place — ILU(0), ikj variant with a dense position map. Vanishing
/// pivots are shifted to the +-1e-12 floor and counted in
/// `*shifted_pivots` when non-null. Returns the factored values, one per
/// pattern slot.
std::vector<double> ilu0_factor(const IluPattern& pattern,
                                std::span<const double> values,
                                int* shifted_pivots);

/// z = (LU)^{-1} r over one factored block (local indices, r and z of
/// pattern.rows() entries).
void ilu0_solve(const IluPattern& pattern, std::span<const double> factor,
                std::span<const double> r, std::span<double> z);

class BlockJacobi {
 public:
  /// Factors the `num_blocks` diagonal blocks of `a` (square, with values).
  /// Zero pivots (possible for wildly non-dominant inputs) are replaced by
  /// a small shift to keep the sweep well-defined.
  BlockJacobi(const sparse::CsrMatrix& a, int num_blocks);

  int num_blocks() const { return static_cast<int>(blocks_.size()); }

  /// z = M^{-1} r.
  void apply(std::span<const double> r, std::span<double> z) const;

  /// Fraction of matrix entries captured inside the diagonal blocks — the
  /// quality proxy reported by the Figure-1 bench.
  double capture_fraction() const { return capture_fraction_; }

  /// Number of vanishing ILU(0) pivots the factorization shifted to the
  /// +-1e-12 floor — the recorded fallback that keeps the triangular
  /// sweeps defined on wildly non-dominant inputs. 0 on healthy SPD
  /// matrices (the factorization is then untouched).
  int shifted_pivots() const { return shifted_pivots_; }

 private:
  struct Block {
    index_t lo = 0;  ///< first row of the block
    index_t hi = 0;  ///< one past the last row
    IluPattern pattern;
    std::vector<double> factor;
  };

  std::vector<Block> blocks_;
  double capture_fraction_ = 0.0;
  int shifted_pivots_ = 0;
};

}  // namespace drcm::solver
