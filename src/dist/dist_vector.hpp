// Vector distribution math and the dense / sparse distributed vectors.
//
// A length-n vector on a q x q grid is cut into q chunks (chunk c is
// conformal with the matrix columns of processor column c), and each chunk
// is cut again into q sub-chunks, one per grid row. Element g is owned by
// exactly one rank: (owner_row(g), owner_col(g)). All cuts are balanced
// (sizes differ by at most one) and purely arithmetic, so every rank can
// compute any owner without communication — the property the SpMSpV
// routing and SORTPERM bucket routing rely on. The per-element routing
// loops look owners up in a CutTable (the cuts precomputed once, then a
// division-free scan); VectorDist's owner_* arithmetic is the closed form
// the table is checked against.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "dist/proc_grid.hpp"
#include "dist/vec_entry.hpp"

namespace drcm::dist {

/// The ownership arithmetic for one vector length on one grid side q.
class VectorDist {
 public:
  VectorDist() = default;
  VectorDist(index_t n, int q) : n_(n), q_(q) {
    DRCM_CHECK(n >= 0 && q >= 1, "VectorDist needs n >= 0 and q >= 1");
  }

  index_t n() const { return n_; }
  int q() const { return q_; }

  /// First element of chunk c (c in [0, q]; chunk_lo(q) == n).
  index_t chunk_lo(int c) const {
    DRCM_DCHECK(c >= 0 && c <= q_);
    return (static_cast<index_t>(c) * n_) / q_;
  }
  index_t chunk_size(int c) const { return chunk_lo(c + 1) - chunk_lo(c); }

  /// First element of sub-chunk r of chunk c (r in [0, q];
  /// sub_lo(c, q) == chunk_lo(c + 1)).
  index_t sub_lo(int c, int r) const {
    DRCM_DCHECK(r >= 0 && r <= q_);
    return chunk_lo(c) + (static_cast<index_t>(r) * chunk_size(c)) / q_;
  }
  index_t sub_size(int c, int r) const { return sub_lo(c, r + 1) - sub_lo(c, r); }

  /// Chunk containing element g == the grid column whose matrix columns
  /// are conformal with g.
  int owner_col(index_t g) const {
    DRCM_DCHECK(g >= 0 && g < n_);
    int c = static_cast<int>((g * q_) / n_);
    if (c >= q_) c = q_ - 1;
    while (c > 0 && chunk_lo(c) > g) --c;
    while (c + 1 < q_ && chunk_lo(c + 1) <= g) ++c;
    return c;
  }

  /// Sub-chunk of chunk owner_col(g) containing g == the grid row of g's
  /// owner.
  int owner_row(index_t g) const {
    const int c = owner_col(g);
    const index_t off = g - chunk_lo(c);
    const index_t sz = chunk_size(c);
    int r = static_cast<int>((off * q_) / (sz > 0 ? sz : 1));
    if (r >= q_) r = q_ - 1;
    while (r > 0 && sub_lo(c, r) > g) --r;
    while (r + 1 < q_ && sub_lo(c, r + 1) <= g) ++r;
    return r;
  }

  /// Elements owned by the rank at grid position (r, c).
  std::pair<index_t, index_t> owned_range(int r, int c) const {
    return {sub_lo(c, r), sub_lo(c, r + 1)};
  }

  /// World rank owning element g.
  int owner_rank(index_t g) const { return owner_row(g) * q_ + owner_col(g); }

  friend bool operator==(const VectorDist&, const VectorDist&) = default;

 private:
  index_t n_ = 0;
  int q_ = 1;
};

/// Division-free owner lookup for one VectorDist: its p + 1 owned-range
/// cuts in (column, row) grid order — the order owned ranges ascend in —
/// so chunk c's q + 1 sub-chunk cuts are the consecutive entries
/// [c * q, c * q + q]. An owner is found by scanning at most q cuts per
/// axis for the last cut <= g, which also steps over empty chunks and
/// sub-chunks (n < q). Agrees with VectorDist's owner_col / owner_row /
/// owner_rank for every g.
class CutTable {
 public:
  explicit CutTable(const VectorDist& d)
      : q_(d.q()), cuts_(static_cast<std::size_t>(d.q()) * d.q() + 1, d.n()) {
    for (int c = 0; c < q_; ++c) {
      for (int r = 0; r < q_; ++r) {
        cuts_[static_cast<std::size_t>(c) * q_ + r] = d.sub_lo(c, r);
      }
    }
  }

  /// Grid row of g's owner, for g in chunk c (== owner_row(g) there).
  int owner_row_in_chunk(int c, index_t g) const {
    const index_t* cut = cuts_.data() + static_cast<std::size_t>(c) * q_;
    DRCM_DCHECK(g >= cut[0] && g < cut[q_], "element outside the chunk");
    int r = 0;
    while (r + 1 < q_ && cut[r + 1] <= g) ++r;
    return r;
  }

  /// Chunk holding g (== owner_col(g)).
  int owner_col(index_t g) const {
    DRCM_DCHECK(g >= 0 && g < cuts_.back(), "element outside the vector");
    int c = 0;
    while (c + 1 < q_ && cuts_[static_cast<std::size_t>(c + 1) * q_] <= g) ++c;
    return c;
  }

  /// World rank owning g (== owner_rank(g)).
  int owner_rank(index_t g) const {
    const int c = owner_col(g);
    return owner_row_in_chunk(c, g) * q_ + c;
  }

 private:
  int q_;
  std::vector<index_t> cuts_;
};

/// Dense distributed vector: each rank stores exactly its owned range.
///
/// Ownership contract:
///   * Construction is per-rank arithmetic (no communication): the rank at
///     grid position (row, col) allocates exactly `dist.owned_range(row,
///     col)` — a contiguous [lo, hi) window of O(n/p) elements.
///   * `get`/`set` touch ONLY owned elements; addressing an element outside
///     [lo, hi) is a contract violation (debug-checked). There is no remote
///     access path — cross-rank movement is always an explicit collective
///     (`to_global`, or redistribute_to_row_slab in redistribute.hpp).
///   * `to_global` is the ONE deliberate replication point, and it is
///     collective: every rank pays O(n). Pipeline stages must stay on the
///     owned slab and never call it on the hot path; the resident ledger
///     treats any surviving O(n) copy as a scalability bug.
///
/// Instantiated for index_t (the paper's R, D and level vectors — the
/// `DistDenseVec` alias) and double (the distributed right-hand side and
/// solution of the value pipeline — `DistDenseVecD`).
template <class T>
class DistDenseVecT {
 public:
  DistDenseVecT() = default;
  DistDenseVecT(const VectorDist& dist, ProcGrid2D& grid, T init = T{})
      : dist_(dist) {
    DRCM_CHECK(dist.q() == grid.q(), "vector distribution does not fit grid");
    const auto [lo, hi] = dist.owned_range(grid.row(), grid.col());
    lo_ = lo;
    hi_ = hi;
    data_.assign(static_cast<std::size_t>(hi_ - lo_), init);
  }

  index_t lo() const { return lo_; }
  index_t hi() const { return hi_; }
  index_t local_size() const { return hi_ - lo_; }
  bool owns(index_t g) const { return g >= lo_ && g < hi_; }

  T get(index_t g) const {
    DRCM_DCHECK(owns(g), "get of unowned element");
    return data_[static_cast<std::size_t>(g - lo_)];
  }
  void set(index_t g, T v) {
    DRCM_DCHECK(owns(g), "set of unowned element");
    data_[static_cast<std::size_t>(g - lo_)] = v;
  }

  const VectorDist& dist() const { return dist_; }

  /// This rank's owned slab in ascending global-index order.
  std::span<const T> local() const { return data_; }

  /// Replicates the full vector on every rank, in global index order.
  /// Collective — the explicit O(n)-per-rank escape hatch; see the
  /// ownership contract above.
  std::vector<T> to_global(mps::Comm& world) const {
    const int q = dist_.q();
    DRCM_CHECK(world.size() == q * q, "to_global needs the grid's world comm");
    const auto all = world.allgatherv(std::span<const T>(data_));
    std::vector<T> global(static_cast<std::size_t>(dist_.n()));
    // allgatherv concatenates in world-rank order; owned ranges are known
    // arithmetically, so each block lands at its global offset.
    std::size_t pos = 0;
    for (int w = 0; w < world.size(); ++w) {
      const auto [lo, hi] = dist_.owned_range(w / q, w % q);
      for (index_t g = lo; g < hi; ++g) {
        global[static_cast<std::size_t>(g)] = all[pos++];
      }
    }
    return global;
  }

 private:
  VectorDist dist_{};
  index_t lo_ = 0;
  index_t hi_ = 0;
  std::vector<T> data_;
};

/// The paper's index-valued vectors (R, D, levels).
using DistDenseVec = DistDenseVecT<index_t>;
/// The value pipeline's distributed rhs / solution.
using DistDenseVecD = DistDenseVecT<double>;

/// Sparse distributed vector (the paper's frontiers): each rank holds the
/// entries of its owned range, strictly ascending by index.
class DistSpVec {
 public:
  DistSpVec() = default;
  DistSpVec(const VectorDist& dist, ProcGrid2D& grid);

  index_t lo() const { return lo_; }
  index_t hi() const { return hi_; }

  /// Replaces the local entries. Every entry must be owned and the list
  /// strictly ascending by index (throws CheckError otherwise).
  void assign(std::vector<VecEntry> entries);

  /// A vector with my distribution and ownership holding `entries`
  /// (validated as in assign) — result construction without copying my
  /// own entries first.
  DistSpVec sibling(std::vector<VecEntry> entries) const {
    DistSpVec out;
    out.dist_ = dist_;
    out.lo_ = lo_;
    out.hi_ = hi_;
    out.assign(std::move(entries));
    return out;
  }

  /// Sets every local value to `v` in place; the indices — and with them
  /// the storage invariant — are untouched.
  void fill_values(index_t v) {
    for (auto& e : entries_) e.val = v;
  }

  const std::vector<VecEntry>& entries() const { return entries_; }
  index_t local_nnz() const { return static_cast<index_t>(entries_.size()); }

  /// Total entry count across ranks. Collective.
  index_t global_nnz(mps::Comm& world) const;

  /// Replicates all entries on every rank, ascending by index. Collective.
  std::vector<VecEntry> to_global(mps::Comm& world) const;

  const VectorDist& dist() const { return dist_; }

 private:
  VectorDist dist_{};
  index_t lo_ = 0;
  index_t hi_ = 0;
  std::vector<VecEntry> entries_;
};

}  // namespace drcm::dist
