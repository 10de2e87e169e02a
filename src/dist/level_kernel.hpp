// The fused per-level kernels of the distributed BFS and Cuthill-McKee
// loops. Per-level crossing budget: BFS 2, CM 3.
//
// One BFS level — SET (refresh frontier values from the dense level
// vector), the (select2nd, min) SpMSpV expansion and SELECT (keep
// unvisited) — runs as ONE phase-scoped collective through
// Comm::fused_gather_route_count in 2 barrier crossings. It needs no count
// superstep: the global size of the frontier it EXPANDS is the sum of the
// span sizes every rank publishes at crossing 1. So a BFS learns that a
// level came back empty one call later, in a terminal call of a single
// crossing (L + 1 levels cost 2(L + 1) + 1 crossings).
//
// One ordering level (Comm::fused_order_level) starts from a COLUMN
// frontier: the level's vertices in my processor column's chunk, valued
// by their Cuthill-McKee labels, which every rank of the column already
// holds. It expands that frontier and routes the partials to their owners
// (crossing 1); the owners merge, SELECT, and deal each kept (bucket,
// degree, index) triple to the sort worker whose parent-label stripe holds
// its bucket (crossing 2, whose p x p deal counts give the level total and
// every worker's label offset); each worker counting-sorts its stripe and
// sends every (index, label) to all q ranks of the processor column that
// owns the index (crossing 3). What a rank receives is its next column
// frontier, and the owner sets the label: 3 crossings per level, 2 on the
// terminal level. Trade-off: a level whose every vertex shares one parent
// (a star) counting-sorts on one worker; the multiply and the merge stay
// distributed, and the labels are the same.
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
//
// The standalone dist::spmspv_select2nd_min (declared in spmspv.hpp) is
// defined here too: bfs_level_step's expansion without SET or SELECT.
#pragma once

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"
#include "dist/workspace.hpp"
#include "mpsim/stats.hpp"

namespace drcm::dist {

/// Result of one fused BFS level.
struct BfsLevelResult {
  /// The post-SELECT next frontier (this rank's owned part; its global
  /// size is counted by the NEXT call): entries whose dense value equals
  /// the keep sentinel, values = minimum parent value (ascending by index).
  DistSpVec next;
  /// Exact global nnz of the frontier this call EXPANDED, identical on
  /// every rank. 0 means the frontier was empty: the call returned after
  /// one crossing and `next` is empty.
  index_t frontier_nnz = 0;
};

/// Result of one fused ordering level.
struct LevelStepResult {
  /// The discovered level, this rank's owned part: entries that were
  /// unlabeled, values = minimum parent label (ascending by index). Their
  /// new labels are in `labels`; the next call's input is `column`.
  DistSpVec next;
  /// Exact global nnz of `next` (the emptiness test), identical on every
  /// rank.
  index_t global_nnz = 0;
};

/// One fused BFS level: y = SELECT(SPMSPV(A, SET(x, dense)), dense ==
/// keep_sentinel), plus the global count of x, in two barrier crossings —
/// one when x is empty everywhere. Comm/multiply costs are attributed to
/// `spmspv_phase`, the SET/SELECT scans to `other_phase` (the Figure-4
/// split). Collective; must not be called under an open PhaseScope.
/// Scratch comes from `ws`, or the grid's per-rank workspace when null.
BfsLevelResult bfs_level_step(const DistSpMat& a, const DistSpVec& frontier,
                              const DistDenseVec& dense,
                              index_t keep_sentinel, ProcGrid2D& grid,
                              mps::Phase spmspv_phase, mps::Phase other_phase,
                              DistWorkspace* ws = nullptr);

/// One fused Cuthill-McKee ordering level in THREE barrier crossings
/// (Comm::fused_order_level), two when the level comes back empty:
///
///   Lnext <- SELECT(SPMSPV(A, Lcur), R = kNoVertex)      [crossing 1]
///   R     <- SET(R, SORTPERM(Lnext, D) + next_label)     [crossings 2-3]
///
/// `column` is this level's column frontier on entry — every vertex of
/// the level in my processor column's chunk (any order), valued by its
/// label, identical on the q ranks of the column — and the next level's
/// on return (empty after the terminal level). Labels of the level lie in
/// [label_lo, label_hi) (the contiguous range of the previous level); the
/// discovered level is written into `labels` as consecutive labels
/// starting at `next_label`, ranked by (parent label, degree, index).
/// Costs split across `spmspv_phase` (crossings 1-2, expansion volume and
/// the count), `sort_phase` (crossing 3, deal + label volume, worker sort)
/// and `other_phase` (SELECT and SET scans); wall time is split the same
/// way. Collective; must not be called under an open PhaseScope.
LevelStepResult cm_level_step(const DistSpMat& a, std::vector<VecEntry>& column,
                              DistDenseVec& labels,
                              const DistDenseVec& degrees, index_t label_lo,
                              index_t label_hi, index_t next_label,
                              ProcGrid2D& grid, mps::Phase spmspv_phase,
                              mps::Phase sort_phase, mps::Phase other_phase,
                              DistWorkspace* ws = nullptr);

/// The column frontier of `frontier` for cm_level_step: my processor
/// column's entries of it, valued by their labels — the column gather of
/// Comm::fused_gather_route_count with nothing routed (2 crossings, 1 when
/// `frontier` is empty everywhere). The re-entry point of a run that resumes from
/// an owned frontier (the incremental-repair cone); a run from a root
/// builds its one-entry column frontier locally instead. Collective; the
/// gather is charged to `phase`.
std::vector<VecEntry> gather_column_frontier(const DistSpVec& frontier,
                                             const DistDenseVec& labels,
                                             ProcGrid2D& grid,
                                             mps::Phase phase);

/// Reconstructs a frontier from the dense label vector: the sparse vector
/// of vertices whose label lies in [label_lo, label_hi), values = their
/// labels — the owned part of the level whose labels occupy that range,
/// which gather_column_frontier turns into the column frontier the
/// incremental-repair cone resumes a cached BFS from. LOCAL (each rank
/// scans its owned slab; entries come out ascending by index);
/// `other_phase` receives the scan charge.
DistSpVec frontier_from_label_range(const DistDenseVec& labels,
                                    index_t label_lo, index_t label_hi,
                                    ProcGrid2D& grid,
                                    mps::Phase other_phase);

}  // namespace drcm::dist
