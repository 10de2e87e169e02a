// The sqrt(p) x sqrt(p) process grid of the paper's 2D decomposition.
//
// World rank w sits at grid position (row, col) = (w / q, w % q). The grid
// holds no sub-communicator: every 2D exchange is a routed superstep on the
// world communicator (the frontier gather reads the world ranks of my
// processor column, col_world_ranks()), so building a grid runs no
// collective.
#pragma once

#include "common/check.hpp"
#include "common/types.hpp"
#include "dist/workspace.hpp"
#include "mpsim/comm.hpp"

namespace drcm::dist {

/// floor(sqrt(p)) by integer search.
inline int grid_side_floor(int p) {
  DRCM_CHECK(p > 0, "grid needs at least one rank");
  int s = 1;
  while ((s + 1) * (s + 1) <= p) ++s;
  return s;
}

/// Largest perfect square <= p: the number of ranks a square grid can use.
inline int largest_square_grid(int p) {
  const int s = grid_side_floor(p);
  return s * s;
}

class ProcGrid2D {
 public:
  /// Runs no collective; `world`'s size must be a perfect square. When
  /// `external` is non-null the grid adopts it as its kernel scratch
  /// instead of its own member workspace: a serving layer keeps one
  /// DistWorkspace per rank alive ACROSS grids (grids die with their
  /// world at the end of every Runtime::run), so the realloc
  /// ledger — and the warmed buffer capacities it certifies — extends
  /// across requests. The external workspace must outlive the grid.
  explicit ProcGrid2D(mps::Comm& world, DistWorkspace* external = nullptr)
      : world_(world),
        external_workspace_(external),
        q_(side_of(world.size())),
        row_(world.rank() / q_),
        col_(world.rank() % q_) {
    col_world_ranks_.reserve(static_cast<std::size_t>(q_));
    for (int r = 0; r < q_; ++r) {
      col_world_ranks_.push_back(world_rank_of(r, col_));
    }
  }

  ProcGrid2D(const ProcGrid2D&) = delete;
  ProcGrid2D& operator=(const ProcGrid2D&) = delete;

  /// Grid side length: sqrt of the world size.
  int q() const { return q_; }
  int row() const { return row_; }
  int col() const { return col_; }

  mps::Comm& world() { return world_; }

  /// World rank of grid position (r, c).
  int world_rank_of(int r, int c) const {
    DRCM_DCHECK(r >= 0 && r < q_ && c >= 0 && c < q_);
    return r * q_ + c;
  }

  /// World ranks of my processor column in grid-row order (the gather
  /// group of every SpMSpV expansion).
  /// Computed once — the per-level hot path must not allocate it.
  std::span<const int> col_world_ranks() const { return col_world_ranks_; }

  /// This rank's default kernel scratch. The grid is per-rank and outlives
  /// every kernel call made on it, which makes it the natural owner; callers
  /// needing isolated sizing pass their own DistWorkspace instead, and a
  /// grid constructed over an external workspace (see the constructor)
  /// hands that one out here so every kernel on the grid reuses it.
  DistWorkspace& workspace() {
    return external_workspace_ ? *external_workspace_ : workspace_;
  }

 private:
  static int side_of(int size) {
    const int s = grid_side_floor(size);
    DRCM_CHECK(s * s == size,
               "ProcGrid2D needs a perfect-square number of ranks");
    return s;
  }

  mps::Comm& world_;
  DistWorkspace* external_workspace_ = nullptr;
  int q_;
  int row_;
  int col_;
  std::vector<int> col_world_ranks_;
  DistWorkspace workspace_;
};

}  // namespace drcm::dist
