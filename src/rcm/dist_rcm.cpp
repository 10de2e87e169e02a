#include "rcm/dist_rcm.hpp"

#include "dist/level_kernel.hpp"

namespace drcm::rcm {

using dist::DistSpVec;
using dist::VecEntry;

index_t dist_cm_component(const dist::DistSpMat& a,
                          const dist::DistDenseVec& degrees,
                          dist::DistDenseVec& labels, index_t root,
                          index_t next_label, dist::ProcGrid2D& grid,
                          SortKind sort, std::vector<index_t>* level_starts) {
  DRCM_CHECK(root >= 0 && root < a.n(), "root out of range");
  auto& world = grid.world();

  // R[r] <- nv (Algorithm 3 line 3).
  {
    mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
    if (labels.owns(root)) {
      DRCM_CHECK(labels.get(root) == kNoVertex, "root already labeled");
      labels.set(root, next_label);
    }
  }
  if (level_starts) level_starts->push_back(next_label);  // level 0 = root
  DistSpVec frontier(labels.dist(), grid);
  if (frontier.lo() <= root && root < frontier.hi()) {
    frontier.assign({VecEntry{root, next_label}});
  }
  return dist_cm_cone(a, degrees, labels, std::move(frontier),
                      /*frontier_nnz=*/1, next_label + 1, grid, sort,
                      level_starts);
}

index_t dist_cm_cone(const dist::DistSpMat& a,
                     const dist::DistDenseVec& degrees,
                     dist::DistDenseVec& labels, DistSpVec frontier,
                     index_t frontier_nnz, index_t next_label,
                     dist::ProcGrid2D& grid, SortKind sort,
                     std::vector<index_t>* level_starts, index_t label_cap) {
  // The sample-sort baseline cannot ride the level collective (a comparison
  // sort has no histogram to piggyback), so it always takes the reference
  // chain.
  const bool fused = sort == SortKind::kBucket;

  while (frontier_nnz > 0) {
    // Labels of the current frontier form the contiguous range
    // [next_label - |frontier|, next_label): the bucket boundaries of
    // SORTPERM (paper Sec. IV-B observation).
    const index_t label_lo = next_label - frontier_nnz;
    const index_t label_hi = next_label;

    // One ordering level: Lnext <- SELECT(SPMSPV(A, SET(Lcur, R)), R = -1);
    // R <- SET(R, SORTPERM(Lnext, D) + nv). Fused: five barrier crossings
    // (three on the terminal level). Reference: 3 + SORTPERM's 6 = 9.
    auto step =
        fused ? dist::cm_level_step(a, frontier, labels, degrees, label_lo,
                                    label_hi, next_label, grid,
                                    mps::Phase::kOrderingSpmspv,
                                    mps::Phase::kOrderingSort,
                                    mps::Phase::kOrderingOther)
              : dist::cm_level_step_unfused(
                    a, frontier, labels, degrees, label_lo, label_hi,
                    next_label, grid, mps::Phase::kOrderingSpmspv,
                    mps::Phase::kOrderingSort, mps::Phase::kOrderingOther,
                    sort == SortKind::kSampleSort);
    frontier_nnz = step.global_nnz;
    if (frontier_nnz == 0) break;
    if (level_starts) level_starts->push_back(next_label);
    next_label += frontier_nnz;
    // Escape detection for the repair cone: a level that pushes past the
    // cap means this cone is labeling vertices outside its expected
    // component (a delta merged components) — return the overshooting
    // counter instead of flooding the merged blob. The level that crossed
    // the cap HAS already written labels; the caller discards the vector.
    if (label_cap >= 0 && next_label > label_cap) return next_label;
    frontier = std::move(step.next);
  }
  return next_label;
}

}  // namespace drcm::rcm
