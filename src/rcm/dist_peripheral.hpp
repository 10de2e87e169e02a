// Distributed pseudo-peripheral vertex finders (paper Algorithm 4, plus
// the RCM++ bi-criteria refinement).
//
// Both iterations are expressed in the matrix-algebraic primitives: run a
// full distributed BFS, REDUCE the last level to its minimum-degree vertex
// (ties to the smallest id, matching order::pseudo_peripheral_vertex), and
// iterate. kGeorgeLiu repeats while the eccentricity grows; kBiCriteria
// (arXiv 2409.04171) additionally requires the last BFS level to shrink,
// which provably never costs more sweeps and often saves some — every
// sweep saved is a full BFS worth of barrier crossings here. Each mode is
// bit-identical to its serial twin in order/pseudo_peripheral.hpp. Costs
// are charged to the Peripheral:* phases of the Figure-4 breakdown.
#pragma once

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
};

/// Collective. `degrees` is the matrix's distributed degree vector;
/// `start` is the arbitrary starting vertex (Algorithm 4 line 1); `mode`
/// picks the George-Liu or bi-criteria iteration.
DistPeripheralResult dist_pseudo_peripheral(
    const dist::DistSpMat& a, const dist::DistDenseVec& degrees, index_t start,
    dist::ProcGrid2D& grid, PeripheralMode mode = PeripheralMode::kGeorgeLiu);

}  // namespace drcm::rcm
