#include "rcm/dist_peripheral.hpp"

#include <functional>
#include <utility>

#include "dist/primitives.hpp"
#include "rcm/dist_bfs.hpp"
#include "rcm/dist_rcm.hpp"

namespace drcm::rcm {

namespace {

/// What the decision rules read of one sweep from a source vertex.
struct Sweep {
  index_t eccentricity = 0;
  index_t last_width = 0;
  dist::DistSpVec last_frontier;
};

using SweepFn = std::function<Sweep(index_t source)>;

/// REDUCE(Lcur, D): minimum-degree vertex of the last BFS level, ties to
/// the smallest vertex id (Algorithm 4 line 16). Collective.
index_t shrink_last_level(const dist::DistSpVec& last_frontier,
                          const dist::DistDenseVec& degrees, mps::Comm& world) {
  mps::PhaseScope scope(world, mps::Phase::kPeripheralOther);
  const index_t candidate =
      dist::reduce_argmin(last_frontier, degrees, world).second;
  DRCM_CHECK(candidate != kNoVertex, "last BFS level cannot be empty");
  return candidate;
}

/// The George-Liu and RCM++ decision rules, once, over a sweep parameter —
/// decision for decision the serial twin (order::pseudo_peripheral_vertex)
/// the equivalence walls compare against. George-Liu accepts every
/// candidate and continues while the eccentricity grows (paper Algorithm
/// 2: the root moves to the candidate BEFORE the convergence test, so the
/// root is always the last sweep's source). Bi-criteria accepts a
/// candidate that grows the eccentricity or keeps it while shrinking the
/// last level, and continues only while a sweep improved both.
DistPeripheralResult peripheral_search(const dist::DistDenseVec& degrees,
                                       index_t start, mps::Comm& world,
                                       PeripheralMode mode,
                                       const SweepFn& sweep) {
  DistPeripheralResult res;
  res.vertex = start;
  Sweep best = sweep(start);
  res.bfs_sweeps = 1;
  while (true) {
    const index_t candidate =
        shrink_last_level(best.last_frontier, degrees, world);
    if (candidate == res.vertex) break;  // isolated vertex or fixpoint
    Sweep next = sweep(candidate);
    ++res.bfs_sweeps;
    const bool grew = next.eccentricity > best.eccentricity;
    const bool narrower = next.last_width < best.last_width;
    const bool george_liu = mode == PeripheralMode::kGeorgeLiu;
    const bool accept =
        george_liu || grew ||
        (next.eccentricity == best.eccentricity && narrower);
    const bool advance = grew && (george_liu || narrower);
    if (accept) {
      res.vertex = candidate;
      best = std::move(next);
    }
    if (!advance) break;
  }
  res.eccentricity = best.eccentricity;
  res.last_width = best.last_width;
  res.last_frontier = std::move(best.last_frontier);
  return res;
}

/// A plain BFS sweep on the Peripheral:* phases.
Sweep bfs_sweep(const dist::DistSpMat& a, index_t source,
                dist::DistDenseVec& levels, dist::ProcGrid2D& grid) {
  auto bfs = dist_bfs(a, source, levels, grid, mps::Phase::kPeripheralSpmspv,
                      mps::Phase::kPeripheralOther);
  return {bfs.eccentricity, bfs.last_width, std::move(bfs.last_frontier)};
}

}  // namespace

DistPeripheralResult dist_pseudo_peripheral(const dist::DistSpMat& a,
                                            const dist::DistDenseVec& degrees,
                                            index_t start,
                                            dist::ProcGrid2D& grid,
                                            PeripheralMode mode) {
  DRCM_CHECK(start >= 0 && start < a.n(), "start vertex out of range");
  dist::DistDenseVec levels(a.vec_dist(), grid, kNoVertex);
  return peripheral_search(degrees, start, grid.world(), mode,
                           [&](index_t source) {
                             return bfs_sweep(a, source, levels, grid);
                           });
}

ComponentOrder dist_order_component(const dist::DistSpMat& a,
                                    const dist::DistDenseVec& degrees,
                                    dist::DistDenseVec& labels, index_t seed,
                                    index_t first_label,
                                    dist::ProcGrid2D& grid,
                                    PeripheralMode mode,
                                    std::vector<index_t>* level_starts) {
  DRCM_CHECK(seed >= 0 && seed < a.n(), "seed vertex out of range");
  auto& world = grid.world();
  ComponentOrder out;
  const bool speculate = mode == PeripheralMode::kGeorgeLiu;

  // The labels of the live speculative sweep: its source, the owned
  // vertices it labeled, and its level starts.
  index_t live = kNoVertex;
  std::vector<index_t> touched;
  std::vector<index_t> starts;
  index_t live_next = first_label;
  dist::DistDenseVec levels(a.vec_dist(), grid, kNoVertex);
  const auto sweep = [&](index_t source) -> Sweep {
    if (out.sweeps++ == 0 || !speculate) {
      return bfs_sweep(a, source, levels, grid);
    }
    if (live != kNoVertex) {
      // The search moved past the live sweep: undo exactly its labels.
      mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
      for (const index_t g : touched) labels.set(g, kNoVertex);
      world.charge_compute(static_cast<double>(touched.size()));
      touched.clear();
      starts.clear();
      out.discarded_sweeps += 1;
    }
    auto run = dist_cm_component(a, degrees, labels, source, first_label,
                                 grid, &starts, &touched);
    live = source;
    live_next = run.next_label;
    return {run.depth, run.last_width, std::move(run.last_frontier)};
  };
  const auto peripheral = peripheral_search(degrees, seed, world, mode, sweep);
  out.root = peripheral.vertex;
  out.eccentricity = peripheral.eccentricity;
  if (live == kNoVertex) {
    // Every sweep was plain (one George-Liu sweep, or bi-criteria): label
    // the component from its root now.
    out.next_label = dist_cm_component(a, degrees, labels, out.root,
                                       first_label, grid, level_starts)
                         .next_label;
    return out;
  }
  DRCM_CHECK(live == out.root, "George-Liu ends at its last sweep's source");
  out.next_label = live_next;
  if (level_starts) {
    level_starts->insert(level_starts->end(), starts.begin(), starts.end());
  }
  return out;
}

}  // namespace drcm::rcm
