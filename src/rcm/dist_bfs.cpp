#include "rcm/dist_bfs.hpp"

#include "dist/level_kernel.hpp"
#include "dist/primitives.hpp"

namespace drcm::rcm {

using dist::DistSpVec;
using dist::VecEntry;

DistBfsResult dist_bfs(const dist::DistSpMat& a, index_t root,
                       dist::DistDenseVec& levels, dist::ProcGrid2D& grid,
                       mps::Phase spmspv_phase, mps::Phase other_phase) {
  DRCM_CHECK(root >= 0 && root < a.n(), "BFS root out of range");
  auto& world = grid.world();

  DistBfsResult res;
  {
    mps::PhaseScope scope(world, other_phase);
    for (index_t g = levels.lo(); g < levels.hi(); ++g) {
      levels.set(g, kNoVertex);
    }
    world.charge_compute(static_cast<double>(levels.local_size()));
    if (levels.owns(root)) levels.set(root, 0);
  }

  DistSpVec frontier(levels.dist(), grid);
  if (frontier.lo() <= root && root < frontier.hi()) {
    frontier.assign({VecEntry{root, 0}});
  }
  DistSpVec last(levels.dist(), grid);

  index_t depth = -1;  // depth of `frontier` once its count is known
  while (true) {
    // One fused level: SET (values <- levels, Algorithm 4 line 8) ->
    // SPMSPV -> SELECT (keep unvisited), two barrier crossings; the call
    // also counts `frontier` — an empty one ends the BFS in one crossing.
    auto step = dist::bfs_level_step(a, frontier, levels, kNoVertex, grid,
                                     spmspv_phase, other_phase);
    if (step.frontier_nnz == 0) break;
    ++depth;
    res.reached += step.frontier_nnz;
    res.last_width = step.frontier_nnz;

    {
      mps::PhaseScope scope(world, other_phase);
      // Record true levels (clearer than the paper's parent-level values;
      // SELECT only ever tests for the kNoVertex sentinel).
      step.next.fill_values(depth + 1);
      dist::scatter_into_dense(levels, step.next, world);
    }
    last = std::move(frontier);
    frontier = std::move(step.next);
  }
  res.eccentricity = depth;
  res.last_frontier = std::move(last);
  return res;
}

}  // namespace drcm::rcm
