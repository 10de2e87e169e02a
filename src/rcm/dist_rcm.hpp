// Distributed Cuthill-McKee labeling of one connected component
// (paper Algorithm 3).
//
// Starting from a pseudo-peripheral root, each BFS level is discovered with
// the (select2nd, min) SpMSpV (children attach to minimum-label parents),
// filtered to unvisited vertices (SELECT), ranked by the distributed bucket
// SORTPERM on the (parent label, degree, id) key, shifted by the running
// label counter, and written into the dense label vector R (SET). The
// whole ordering level runs through the fused dist::cm_level_step
// collective — three barrier crossings per level (two on the terminal
// level); a run from a root starts without a collective, a run resumed
// from an owned frontier pays one two-crossing column gather. Costs are
// charged to the Ordering:* phases of the Figure-4 breakdown.
//
// A CM run discovers exactly the levels a BFS from the same root would —
// the same eccentricity, the same last level — and labels them on the
// way. That is what lets the George-Liu search run its candidate sweeps as
// CM runs (rcm/dist_peripheral.hpp): each run reports the BFS facts the
// search reads, plus the owned vertices it labeled, so a discarded run
// can be undone in O(component / p).
#pragma once

#include <vector>

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"

namespace drcm::rcm {

/// What a CM labeling run reports.
struct CmRun {
  index_t next_label = 0;  ///< first unused label
  /// Non-empty levels discovered below the starting frontier — for a run
  /// from a root, the root's eccentricity.
  index_t depth = 0;
  index_t last_width = 0;         ///< global size of the deepest level
  dist::DistSpVec last_frontier;  ///< the deepest non-empty level
};

/// Labels the component containing `root` (which must itself be unlabeled)
/// with consecutive CM labels starting at `next_label`; returns the first
/// unused label. `labels` is the paper's dense vector R (kNoVertex =
/// unvisited). Collective.
///
/// `touched`, when non-null, receives every OWNED vertex this run labels
/// (root included) — the per-rank list that resets a discarded run.
///
/// `level_starts`, when non-null, receives the first CM label of every
/// BFS level discovered (level 0 = the root, so the first pushed value is
/// `next_label`). This is the level structure the incremental-repair path
/// memoizes: level ℓ of the component occupies the contiguous label range
/// [starts[ℓ], starts[ℓ+1]) — the SORTPERM bucket-boundary observation
/// (paper Sec. IV-B) doubling as a repair recipe.
CmRun dist_cm_component(const dist::DistSpMat& a,
                        const dist::DistDenseVec& degrees,
                        dist::DistDenseVec& labels, index_t root,
                        index_t next_label, dist::ProcGrid2D& grid,
                        std::vector<index_t>* level_starts = nullptr,
                        std::vector<index_t>* touched = nullptr);

/// The CONE-RESTRICTED entry point the incremental-repair path uses:
/// continue CM labeling from an arbitrary mid-BFS state instead of a
/// root. `frontier` must hold the vertices of the last already-labeled
/// level, whose labels in `labels` occupy [next_label - frontier_nnz,
/// next_label) (frontier VALUES are ignored — the column gather refreshes
/// them from `labels`); every deeper vertex must still be kNoVertex.
/// Gathers the column frontier (one two-crossing column gather), then runs
/// cm_level_step until the frontier empties, exactly the steps
/// dist_cm_component would have run from this state. The result's
/// depth counts the levels below `frontier`; when no level follows,
/// `frontier` itself is reported as the deepest level.
///
/// `label_cap`, when >= 0, bounds the labels this cone may assign: the
/// first level that pushes next_label past the cap ends the loop, and the
/// overshooting value (> cap) comes back as next_label, so the caller can
/// detect that the cone escaped its expected component (a pattern delta
/// merged two cached components) without labeling the whole merged blob.
/// `touched` as in dist_cm_component. Collective.
CmRun dist_cm_cone(const dist::DistSpMat& a, const dist::DistDenseVec& degrees,
                   dist::DistDenseVec& labels, dist::DistSpVec frontier,
                   index_t frontier_nnz, index_t next_label,
                   dist::ProcGrid2D& grid,
                   std::vector<index_t>* level_starts = nullptr,
                   index_t label_cap = -1,
                   std::vector<index_t>* touched = nullptr);

}  // namespace drcm::rcm
