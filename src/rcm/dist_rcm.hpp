// Distributed Cuthill-McKee labeling of one connected component
// (paper Algorithm 3).
//
// Starting from a pseudo-peripheral root, each BFS level is discovered with
// the (select2nd, min) SpMSpV (children attach to minimum-label parents),
// filtered to unvisited vertices (SELECT), ranked by the distributed bucket
// SORTPERM on the (parent label, degree, id) key, shifted by the running
// label counter, and written into the dense label vector R (SET). The
// whole ordering level runs through the fused dist::cm_level_step
// collective — five barrier crossings per level (three on the terminal
// level). Costs are charged to the Ordering:* phases of the Figure-4
// breakdown.
#pragma once

#include <vector>

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"

namespace drcm::rcm {

/// Labels the component containing `root` (which must itself be unlabeled)
/// with consecutive CM labels starting at `next_label`; returns the first
/// unused label. `labels` is the paper's dense vector R (kNoVertex =
/// unvisited). Collective.
///
/// `level_starts`, when non-null, receives the first CM label of every
/// BFS level discovered (level 0 = the root, so the first pushed value is
/// `next_label`). This is the level structure the incremental-repair path
/// memoizes: level ℓ of the component occupies the contiguous label range
/// [starts[ℓ], starts[ℓ+1]) — the SORTPERM bucket-boundary observation
/// (paper Sec. IV-B) doubling as a repair recipe.
index_t dist_cm_component(const dist::DistSpMat& a,
                          const dist::DistDenseVec& degrees,
                          dist::DistDenseVec& labels, index_t root,
                          index_t next_label, dist::ProcGrid2D& grid,
                          std::vector<index_t>* level_starts = nullptr);

/// The CONE-RESTRICTED entry point the incremental-repair path uses:
/// continue CM labeling from an arbitrary mid-BFS state instead of a
/// root. `frontier` must hold the vertices of the last already-labeled
/// level, whose labels in `labels` occupy [next_label - frontier_nnz,
/// next_label) (frontier VALUES are ignored — the fused kernel's SET
/// stage refreshes them from `labels`); every deeper vertex must still be
/// kNoVertex. Runs cm_level_step until the frontier empties, exactly the
/// steps dist_cm_component would have run from this state, and returns
/// the first unused label.
///
/// `label_cap`, when >= 0, bounds the labels this cone may assign: the
/// loop stops BEFORE a step that would push next_label past the cap and
/// returns the overshooting value (> cap) so the caller can detect that
/// the cone escaped its expected component (a pattern delta merged two
/// cached components) without labeling the whole merged blob. Collective.
index_t dist_cm_cone(const dist::DistSpMat& a,
                     const dist::DistDenseVec& degrees,
                     dist::DistDenseVec& labels, dist::DistSpVec frontier,
                     index_t frontier_nnz, index_t next_label,
                     dist::ProcGrid2D& grid,
                     std::vector<index_t>* level_starts = nullptr,
                     index_t label_cap = -1);

}  // namespace drcm::rcm
