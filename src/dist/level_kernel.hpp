// The fused per-level BFS kernel: SET (refresh frontier values from the
// dense level/label vector), the (select2nd, min) SpMSpV expansion, SELECT
// (keep unvisited) and the emptiness/count reduction of one BFS level, as
// ONE phase-scoped collective.
//
// The unfused chain (gather_from_dense + spmspv_select2nd_min +
// select_where_equals + global_nnz) enters four collectives per level —
// eight barrier crossings, each a full latency term at scale. Fusing
// changes two things:
//
//   * the per-level chain runs through Comm::fused_gather_route_count,
//     whose three BSP supersteps share crossings: 3 crossings per level
//     instead of 8;
//   * stage-3 partials are routed DIRECTLY to the owner of each output
//     element (the paper's sub-chunk owner), which subsumes the row-merge
//     alltoallv + transpose pairwise exchange of the unfused kernel and
//     lets SELECT run where the dense vector already lives.
//
// The fused level is OUTPUT-SENSITIVE: stage 2 emits only the rows its
// SPA touched, and the owner merge tests only the slots it filled before
// sorting the kept level — O(frontier edges + |next| log |next|) per rank,
// with no pass over the owned range. Both paths are bit-identical by
// construction — min over parents, emission in ascending index order —
// which tests/test_dist_level_kernel_equivalence.cpp enforces on
// randomized graphs at every rank x thread count.
#pragma once

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"
#include "dist/workspace.hpp"
#include "mpsim/stats.hpp"

namespace drcm::dist {

/// Result of one fused (or reference-unfused) BFS level.
struct LevelStepResult {
  /// The post-SELECT next frontier: entries whose dense value equals the
  /// keep sentinel, values = minimum parent value (ascending by index).
  DistSpVec next;
  /// Exact global nnz of `next` (the emptiness test), identical on every
  /// rank.
  index_t global_nnz = 0;
};

/// One fused BFS level: y = SELECT(SPMSPV(A, SET(x, dense)), dense ==
/// keep_sentinel), plus its global count, in three barrier crossings.
/// Comm/multiply costs are attributed to `spmspv_phase`, the SET/SELECT
/// scans to `other_phase` (the Figure-4 split). Collective; must not be
/// called under an open PhaseScope. Scratch comes from `ws`, or the grid's
/// per-rank workspace when null.
LevelStepResult bfs_level_step(const DistSpMat& a, const DistSpVec& frontier,
                               const DistDenseVec& dense,
                               index_t keep_sentinel, ProcGrid2D& grid,
                               mps::Phase spmspv_phase, mps::Phase other_phase,
                               DistWorkspace* ws = nullptr);

/// The reference chain: the same level computed with the four unfused
/// primitives (gather_from_dense, spmspv_select2nd_min,
/// select_where_equals, global_nnz) — eight barrier crossings. No
/// production path runs it: it is the level-by-level reference of the
/// equivalence suite and the unfused side of fig4's crossing split.
LevelStepResult bfs_level_step_unfused(
    const DistSpMat& a, const DistSpVec& frontier, const DistDenseVec& dense,
    index_t keep_sentinel, ProcGrid2D& grid, mps::Phase spmspv_phase,
    mps::Phase other_phase, DistWorkspace* ws = nullptr);

/// Result of one fused (or reference-unfused) ORDERING level: the BFS level
/// step above plus SORTPERM plus the label scatter of Algorithm 3.
struct CmLevelResult {
  /// The next frontier (post-SELECT), values = minimum parent label.
  DistSpVec next;
  /// Exact global nnz of `next`, identical on every rank.
  index_t global_nnz = 0;
};

/// One fused Cuthill-McKee ordering level in FIVE barrier crossings
/// (Comm::fused_order_level), three when the level comes back empty:
///
///   Lnext <- SELECT(SPMSPV(A, SET(Lcur, R)), R = kNoVertex)   [3 crossings]
///   R     <- SET(R, SORTPERM(Lnext, D) + next_label)          [+2 crossings]
///
/// The SORTPERM bucket histogram rides the count superstep's freed frontier
/// board, the element deal reuses the freed partial-routing board, and the
/// position scatter rides the auxiliary payload board — so the whole
/// ordering level needs no collective beyond the level kernel's own. The
/// unfused reference (cm_level_step_unfused below) pays 3 + SORTPERM's 6 =
/// 9 crossings for the identical result; both paths are bit-identical by
/// construction, enforced by tests/test_dist_cm_level_equivalence.cpp.
///
/// `labels` must hold the parent labels of `frontier`'s entries inside
/// [label_lo, label_hi) (the contiguous range of the previous level);
/// the discovered level is written into `labels` as consecutive labels
/// starting at `next_label`, ranked by (parent label, degree, index).
/// Costs split across `spmspv_phase` (crossings 1-3, expansion volume),
/// `sort_phase` (crossings 4-5, histogram + deal + scatter volume) and
/// `other_phase` (SET/SELECT scans); wall time lands on `spmspv_phase`.
/// Collective; must not be called under an open PhaseScope.
CmLevelResult cm_level_step(const DistSpMat& a, const DistSpVec& frontier,
                            DistDenseVec& labels, const DistDenseVec& degrees,
                            index_t label_lo, index_t label_hi,
                            index_t next_label, ProcGrid2D& grid,
                            mps::Phase spmspv_phase, mps::Phase sort_phase,
                            mps::Phase other_phase,
                            DistWorkspace* ws = nullptr);

/// The reference ordering level: the fused BFS level step followed by the
/// standalone SORTPERM chain (sortperm_bucket or, when `sample_sort`, the
/// sample-sort baseline) and the label scatter — 3 + 6 = 9 barrier
/// crossings. The ordering driver runs it only for SortKind::kSampleSort
/// (a comparison sort has no histogram to ride the fused collective); with
/// bucket sort it is the level-by-level reference of the equivalence suite
/// and the unfused side of fig4's crossing split.
CmLevelResult cm_level_step_unfused(
    const DistSpMat& a, const DistSpVec& frontier, DistDenseVec& labels,
    const DistDenseVec& degrees, index_t label_lo, index_t label_hi,
    index_t next_label, ProcGrid2D& grid, mps::Phase spmspv_phase,
    mps::Phase sort_phase, mps::Phase other_phase, bool sample_sort = false,
    DistWorkspace* ws = nullptr);

/// Reconstructs a frontier from the dense label vector: the sparse vector
/// of vertices whose label lies in [label_lo, label_hi), values = their
/// labels. Because cm_level_step's SET stage refreshes frontier values
/// from `labels` anyway, the result is interchangeable with the `next`
/// frontier a prior cm_level_step would have returned for that level —
/// the re-entry point the incremental-repair cone uses to resume a cached
/// BFS mid-flight. LOCAL (each rank scans its owned slab; entries come
/// out ascending by index); `other_phase` receives the scan charge.
DistSpVec frontier_from_label_range(const DistDenseVec& labels,
                                    index_t label_lo, index_t label_hi,
                                    ProcGrid2D& grid,
                                    mps::Phase other_phase);

}  // namespace drcm::dist
