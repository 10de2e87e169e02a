// Distributed pseudo-peripheral vertex finders (paper Algorithm 4, plus
// the RCM++ bi-criteria refinement), and the per-component search +
// Cuthill-McKee labeling the ordering drivers run.
//
// Both iterations are expressed in the matrix-algebraic primitives: sweep
// the component with a distributed BFS, REDUCE the last level to its
// minimum-degree vertex (ties to the smallest id, matching
// order::pseudo_peripheral_vertex), and iterate. kGeorgeLiu repeats while
// the eccentricity grows; kBiCriteria (arXiv 2409.04171) additionally
// requires the last BFS level to shrink, which provably never costs more
// sweeps and often saves some. The decision rules of both modes live in
// ONE loop that takes the sweep as a parameter. Each mode is bit-identical
// to its serial twin in order/pseudo_peripheral.hpp.
//
// Speculative sweeps (dist_order_component, kGeorgeLiu). George-Liu
// always ends with its root as the source of its LAST sweep. So the first
// sweep of a component stays a plain BFS (Peripheral:* phases, 2 crossings
// per level), and every candidate sweep after it runs as a fused CM
// labeling run from the candidate (rcm/dist_rcm.hpp; Ordering:* phases, 3
// crossings per level): it finds the same levels, eccentricity and last
// level as a BFS, and labels the component on the way, starting at the
// component's first label. When the search stops, the last sweep's labels
// ARE the component's ordering and no separate ordering pass runs. A sweep
// the search moves past (its eccentricity grew, so another candidate
// follows) is discarded by resetting exactly the owned vertices it labeled
// — O(component / p), not O(n / p). A component with k sweeps of L levels
// then costs about 2L + 3(k - 1)L crossings instead of 2kL + 3L. RCM++'s
// root need not be its last sweep's source, so kBiCriteria keeps plain
// sweeps, as do the Sloan arm and the repair cone's search.
#pragma once

#include <vector>

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"
#include "order/pseudo_peripheral.hpp"

namespace drcm::rcm {

/// Shared serial/distributed knob (order::PeripheralMode re-exported at the
/// layer the distributed options live in).
using order::PeripheralMode;

struct DistPeripheralResult {
  index_t vertex = kNoVertex;
  index_t eccentricity = 0;
  int bfs_sweeps = 0;
  index_t last_width = 0;  ///< size of the last BFS level from `vertex`
  /// The last BFS level from `vertex` (this rank's owned part) — what a
  /// caller needs to pick the far end of the pseudo-diameter without
  /// sweeping from `vertex` again.
  dist::DistSpVec last_frontier;
};

/// Collective. `degrees` is the matrix's distributed degree vector;
/// `start` is the arbitrary starting vertex (Algorithm 4 line 1); `mode`
/// picks the George-Liu or bi-criteria iteration. Every sweep is a plain
/// BFS charged to the Peripheral:* phases.
DistPeripheralResult dist_pseudo_peripheral(
    const dist::DistSpMat& a, const dist::DistDenseVec& degrees, index_t start,
    dist::ProcGrid2D& grid, PeripheralMode mode = PeripheralMode::kGeorgeLiu);

/// One component's search and CM labeling.
struct ComponentOrder {
  index_t root = kNoVertex;  ///< pseudo-peripheral root the labels start at
  index_t eccentricity = 0;  ///< of the root
  int sweeps = 0;            ///< search sweeps, discarded ones included
  int discarded_sweeps = 0;  ///< speculative sweeps reset after the fact
  index_t next_label = 0;    ///< first label after the component
};

/// Finds the pseudo-peripheral root of the component containing the
/// unlabeled `seed` and labels the component with consecutive CM labels
/// starting at `first_label` — exactly dist_pseudo_peripheral followed by
/// dist_cm_component from its root, in labels, root, sweep count and
/// `level_starts` (appended as dist_cm_component does). Under kGeorgeLiu
/// the candidate sweeps are speculative CM runs (see above); kBiCriteria
/// sweeps plainly and labels afterwards. Vertices outside the component
/// are never read or written. Collective.
ComponentOrder dist_order_component(const dist::DistSpMat& a,
                                    const dist::DistDenseVec& degrees,
                                    dist::DistDenseVec& labels, index_t seed,
                                    index_t first_label,
                                    dist::ProcGrid2D& grid,
                                    PeripheralMode mode,
                                    std::vector<index_t>* level_starts =
                                        nullptr);

}  // namespace drcm::rcm
