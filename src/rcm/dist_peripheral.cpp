#include "rcm/dist_peripheral.hpp"

#include "dist/primitives.hpp"
#include "rcm/dist_bfs.hpp"

namespace drcm::rcm {

namespace {

/// REDUCE(Lcur, D): minimum-degree vertex of the last BFS level, ties to
/// the smallest vertex id (Algorithm 4 line 16). Collective.
index_t shrink_last_level(const DistBfsResult& bfs,
                          const dist::DistDenseVec& degrees, mps::Comm& world) {
  mps::PhaseScope scope(world, mps::Phase::kPeripheralOther);
  const index_t candidate =
      dist::reduce_argmin(bfs.last_frontier, degrees, world).second;
  DRCM_CHECK(candidate != kNoVertex, "last BFS level cannot be empty");
  return candidate;
}

}  // namespace

DistPeripheralResult dist_pseudo_peripheral(const dist::DistSpMat& a,
                                            const dist::DistDenseVec& degrees,
                                            index_t start,
                                            dist::ProcGrid2D& grid,
                                            PeripheralMode mode) {
  DRCM_CHECK(start >= 0 && start < a.n(), "start vertex out of range");
  auto& world = grid.world();

  DistPeripheralResult res;
  res.vertex = start;

  dist::DistDenseVec levels(a.vec_dist(), grid, kNoVertex);
  auto bfs = dist_bfs(a, res.vertex, levels, grid,
                      mps::Phase::kPeripheralSpmspv,
                      mps::Phase::kPeripheralOther);
  ++res.bfs_sweeps;
  res.eccentricity = bfs.eccentricity;

  if (mode == PeripheralMode::kGeorgeLiu) {
    index_t nlvl = res.eccentricity - 1;
    while (res.eccentricity > nlvl) {
      nlvl = res.eccentricity;
      const index_t candidate = shrink_last_level(bfs, degrees, world);
      if (candidate == res.vertex) break;  // isolated vertex or fixpoint
      bfs = dist_bfs(a, candidate, levels, grid, mps::Phase::kPeripheralSpmspv,
                     mps::Phase::kPeripheralOther);
      ++res.bfs_sweeps;
      res.vertex = candidate;
      res.eccentricity = bfs.eccentricity;
    }
    res.last_width = bfs.last_width;
    return res;
  }

  // RCM++ bi-criteria, mirroring order::pseudo_peripheral_vertex's
  // kBiCriteria arm decision for decision (the serial twin the equivalence
  // wall compares against): accept a candidate that grows the eccentricity
  // or keeps it while shrinking the last level; continue only while a sweep
  // improved both.
  index_t width = bfs.last_width;
  while (true) {
    const index_t candidate = shrink_last_level(bfs, degrees, world);
    if (candidate == res.vertex) break;  // isolated vertex or fixpoint
    auto bfs2 = dist_bfs(a, candidate, levels, grid,
                         mps::Phase::kPeripheralSpmspv,
                         mps::Phase::kPeripheralOther);
    ++res.bfs_sweeps;
    const bool better = bfs2.eccentricity > res.eccentricity ||
                        (bfs2.eccentricity == res.eccentricity &&
                         bfs2.last_width < width);
    const bool advance =
        bfs2.eccentricity > res.eccentricity && bfs2.last_width < width;
    if (better) {
      res.vertex = candidate;
      res.eccentricity = bfs2.eccentricity;
      width = bfs2.last_width;
      bfs = std::move(bfs2);
    }
    if (!advance) break;
  }
  res.last_width = width;
  return res;
}

}  // namespace drcm::rcm
