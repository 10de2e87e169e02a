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
#pragma once

#include <span>
#include <vector>

#include "dist/row_block.hpp"
#include "sparse/csr.hpp"

namespace drcm::solver {

class BlockJacobi {
 public:
  /// Factors the `num_blocks` diagonal blocks of `a` (square, with values).
  /// Zero pivots (possible for wildly non-dominant inputs) are replaced by
  /// a small shift to keep the sweep well-defined.
  BlockJacobi(const sparse::CsrMatrix& a, int num_blocks);

  /// One block: the owned rows of a distributed row block restricted to
  /// its own columns [a.lo, a.hi) — dist_pcg's per-rank preconditioner,
  /// factored straight from the row-block rows. Indices of z = M^{-1} r
  /// are LOCAL (row a.lo is index 0).
  explicit BlockJacobi(const dist::RowBlockCsr& a);

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

  /// Read-only view of the factored blocks for the factor oracle test
  /// (tests/test_dist_assembly_oracle.cpp); not part of the solver API.
  friend struct BlockJacobiFactorAccess;

 private:
  struct Block {
    index_t lo = 0;  ///< first row of the block
    index_t hi = 0;  ///< one past the last row
    // ILU(0) factor in CSR over the block's local pattern. `diag_pos[i]`
    // indexes the diagonal entry of local row i in `cols`/`vals`.
    std::vector<nnz_t> row_ptr;
    std::vector<index_t> cols;  ///< local column ids
    std::vector<double> vals;
    std::vector<nnz_t> diag_pos;
  };

  /// Factors rows [lo, hi) of `rows` (anything with CsrMatrix-style
  /// row(g) / row_values(g), columns strictly ascending) restricted to
  /// columns [lo, hi); block row i is global row lo + i.
  template <class Rows>
  static Block factor_block(const Rows& rows, index_t lo, index_t hi,
                            int* shifted_pivots);

  std::vector<Block> blocks_;
  double capture_fraction_ = 0.0;
  int shifted_pivots_ = 0;
};

}  // namespace drcm::solver
