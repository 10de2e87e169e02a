// Distributed level-synchronous BFS: the inner do-while shared by the
// paper's Algorithm 3 (ordering) and Algorithm 4 (pseudo-peripheral
// search). One iteration = the fused level kernel (SET -> SPMSPV ->
// SELECT -> count in three barrier crossings; dist/level_kernel.hpp)
// followed by the SET that records the new level.
#pragma once

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"
#include "mpsim/stats.hpp"

namespace drcm::rcm {

struct DistBfsResult {
  index_t eccentricity = 0;       ///< depth of the last non-empty level
  index_t reached = 0;            ///< vertices visited (including the root)
  index_t last_width = 0;         ///< global size of the deepest level
  dist::DistSpVec last_frontier;  ///< the deepest non-empty level
};

/// Runs a full BFS from `root`, writing levels into the dense vector
/// `levels` (reset to kNoVertex first). `spmspv_phase` / `other_phase`
/// control the Figure-4 cost attribution (peripheral vs ordering).
/// Collective.
DistBfsResult dist_bfs(const dist::DistSpMat& a, index_t root,
                       dist::DistDenseVec& levels, dist::ProcGrid2D& grid,
                       mps::Phase spmspv_phase, mps::Phase other_phase);

}  // namespace drcm::rcm
