// Distributed level-synchronous BFS: the inner do-while of the paper's
// Algorithm 4 (pseudo-peripheral search). One iteration = the fused level
// kernel (SET -> SPMSPV -> SELECT in two barrier crossings, the global
// count of the expanded frontier riding the first; dist/level_kernel.hpp)
// followed by the local SET that records the new level. Because each call
// counts the frontier it expands, the BFS learns that the level below its
// last one is empty in one extra call of a single crossing: a BFS of
// eccentricity L costs 2(L + 1) + 1 crossings.
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
