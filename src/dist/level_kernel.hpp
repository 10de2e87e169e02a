// The fused per-level kernels of the distributed BFS and Cuthill-McKee
// loops. One BFS level — SET (refresh frontier values from the dense
// level/label vector), the (select2nd, min) SpMSpV expansion, SELECT (keep
// unvisited) and the emptiness/count reduction — runs as ONE phase-scoped
// collective through Comm::fused_gather_route_count, whose three BSP
// supersteps share barrier crossings: 3 crossings per level. One ordering
// level adds SORTPERM and the label scatter on two more crossings
// (Comm::fused_order_level): 5 per level.
//
// Stage-3 partials are routed DIRECTLY to the owner of each output element
// (the paper's sub-chunk owner), so SELECT runs where the dense vector
// already lives. The level is OUTPUT-SENSITIVE: stage 2 emits only the
// rows its SPA touched, and the owner merge tests only the slots it filled
// before sorting the kept level — O(frontier edges + |next| log |next|) per
// rank, with no pass over the owned range. Results are deterministic by
// construction — min over parents, emission in ascending index order —
// which tests/test_dist_level_kernel_equivalence.cpp and
// tests/test_dist_cm_level_equivalence.cpp check level by level against
// serial oracles at every rank x thread count.
#pragma once

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"
#include "dist/workspace.hpp"
#include "mpsim/stats.hpp"

namespace drcm::dist {

/// Result of one fused BFS or ordering level.
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

/// One fused Cuthill-McKee ordering level in FIVE barrier crossings
/// (Comm::fused_order_level), three when the level comes back empty:
///
///   Lnext <- SELECT(SPMSPV(A, SET(Lcur, R)), R = kNoVertex)   [3 crossings]
///   R     <- SET(R, SORTPERM(Lnext, D) + next_label)          [+2 crossings]
///
/// The SORTPERM bucket histogram rides the count superstep's freed frontier
/// board, the element deal reuses the freed partial-routing board, and the
/// position scatter rides the auxiliary payload board — so the whole
/// ordering level needs no collective beyond the level kernel's own (the
/// standalone sortperm_bucket alone costs 6).
///
/// `labels` must hold the parent labels of `frontier`'s entries inside
/// [label_lo, label_hi) (the contiguous range of the previous level);
/// the discovered level is written into `labels` as consecutive labels
/// starting at `next_label`, ranked by (parent label, degree, index).
/// Costs split across `spmspv_phase` (crossings 1-3, expansion volume),
/// `sort_phase` (crossings 4-5, histogram + deal + scatter volume) and
/// `other_phase` (SET/SELECT scans); wall time lands on `spmspv_phase`.
/// Collective; must not be called under an open PhaseScope.
LevelStepResult cm_level_step(const DistSpMat& a, const DistSpVec& frontier,
                              DistDenseVec& labels,
                              const DistDenseVec& degrees, index_t label_lo,
                              index_t label_hi, index_t next_label,
                              ProcGrid2D& grid, mps::Phase spmspv_phase,
                              mps::Phase sort_phase, mps::Phase other_phase,
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
