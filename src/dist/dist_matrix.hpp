// 2D-partitioned sparse matrix: rank (r, c) stores the block with rows in
// chunk r and columns in chunk c of the conformal vector distribution.
//
// Blocks are stored CSC (by local column, row lists sorted ascending)
// because SpMSpV streams frontier entries through columns. The input
// pattern must be structurally symmetric (the RCM precondition), so column
// g of A is row g of A: each block is built in one sequential pass over
// the rows of its column chunk, each row cut to the block's row chunk, with
// no transpose. The same pass records the degree (row length) of every
// vertex the rank owns — its owned range lies inside its column chunk —
// so the degree vector D needs no communication.
#pragma once

#include <span>
#include <vector>

#include "dist/dist_vector.hpp"
#include "dist/proc_grid.hpp"
#include "sparse/csr.hpp"

namespace drcm::dist {

class DistSpMat {
 public:
  /// Builds my block of the pattern of the replicated matrix (values, if
  /// any, are ignored: the ordering needs the pattern only, and the solver
  /// matrix travels through redistribute_to_row_blocks). Local: every rank
  /// must construct the same matrix on the same grid, and reads only the
  /// rows of its column chunk.
  DistSpMat(ProcGrid2D& grid, const sparse::CsrMatrix& a);

  index_t n() const { return dist_.n(); }
  const VectorDist& vec_dist() const { return dist_; }
  /// Division-free owner lookup for vec_dist(), built once with the block.
  const CutTable& cuts() const { return cuts_; }

  index_t row_lo() const { return row_lo_; }
  index_t row_hi() const { return row_hi_; }
  index_t col_lo() const { return col_lo_; }
  index_t col_hi() const { return col_hi_; }
  index_t local_rows() const { return row_hi_ - row_lo_; }
  index_t local_cols() const { return col_hi_ - col_lo_; }
  nnz_t local_nnz() const { return static_cast<nnz_t>(rows_.size()); }

  /// Local row indices of local column lc, ascending.
  std::span<const index_t> column(index_t lc) const {
    DRCM_DCHECK(lc >= 0 && lc < local_cols());
    const auto b = static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(lc)]);
    const auto e = static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(lc) + 1]);
    return {rows_.data() + b, e - b};
  }

  /// Scalar slots this block keeps resident (pattern + column pointers) —
  /// what the block contributes to the mpsim resident ledger.
  std::uint64_t resident_elements() const {
    return static_cast<std::uint64_t>(col_ptr_.size() + rows_.size());
  }

  /// Total stored entries across all blocks. Collective.
  nnz_t global_nnz(mps::Comm& world) const;

  /// The distributed degree vector D: the row lengths of my owned
  /// vertices, recorded while the block was built. Local — no collective.
  DistDenseVec degrees(ProcGrid2D& grid) const;

 private:
  VectorDist dist_{};
  CutTable cuts_;
  index_t row_lo_ = 0, row_hi_ = 0;
  index_t col_lo_ = 0, col_hi_ = 0;
  std::vector<nnz_t> col_ptr_{0};
  std::vector<index_t> rows_;  ///< local row ids, sorted within each column
  std::vector<index_t> owned_degrees_;  ///< row lengths of my owned range
};

}  // namespace drcm::dist
