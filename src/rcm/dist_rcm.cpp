#include "rcm/dist_rcm.hpp"

#include "dist/level_kernel.hpp"

namespace drcm::rcm {

using dist::DistSpVec;
using dist::VecEntry;

CmRun dist_cm_component(const dist::DistSpMat& a,
                        const dist::DistDenseVec& degrees,
                        dist::DistDenseVec& labels, index_t root,
                        index_t next_label, dist::ProcGrid2D& grid,
                        std::vector<index_t>* level_starts,
                        std::vector<index_t>* touched) {
  DRCM_CHECK(root >= 0 && root < a.n(), "root out of range");
  auto& world = grid.world();

  // R[r] <- nv (Algorithm 3 line 3).
  {
    mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
    if (labels.owns(root)) {
      DRCM_CHECK(labels.get(root) == kNoVertex, "root already labeled");
      labels.set(root, next_label);
      if (touched) touched->push_back(root);
    }
  }
  if (level_starts) level_starts->push_back(next_label);  // level 0 = root
  DistSpVec frontier(labels.dist(), grid);
  if (frontier.lo() <= root && root < frontier.hi()) {
    frontier.assign({VecEntry{root, next_label}});
  }
  return dist_cm_cone(a, degrees, labels, std::move(frontier),
                      /*frontier_nnz=*/1, next_label + 1, grid, level_starts,
                      /*label_cap=*/-1, touched);
}

CmRun dist_cm_cone(const dist::DistSpMat& a, const dist::DistDenseVec& degrees,
                   dist::DistDenseVec& labels, DistSpVec frontier,
                   index_t frontier_nnz, index_t next_label,
                   dist::ProcGrid2D& grid, std::vector<index_t>* level_starts,
                   index_t label_cap, std::vector<index_t>* touched) {
  CmRun run;
  run.last_width = frontier_nnz;
  while (frontier_nnz > 0) {
    // Labels of the current frontier form the contiguous range
    // [next_label - |frontier|, next_label): the bucket boundaries of
    // SORTPERM (paper Sec. IV-B observation).
    const index_t label_lo = next_label - frontier_nnz;
    const index_t label_hi = next_label;

    // One ordering level: Lnext <- SELECT(SPMSPV(A, SET(Lcur, R)), R = -1);
    // R <- SET(R, SORTPERM(Lnext, D) + nv), in five barrier crossings
    // (three on the terminal level).
    auto step = dist::cm_level_step(a, frontier, labels, degrees, label_lo,
                                    label_hi, next_label, grid,
                                    mps::Phase::kOrderingSpmspv,
                                    mps::Phase::kOrderingSort,
                                    mps::Phase::kOrderingOther);
    frontier_nnz = step.global_nnz;
    if (frontier_nnz == 0) break;
    if (level_starts) level_starts->push_back(next_label);
    if (touched) {
      for (const auto& e : step.next.entries()) touched->push_back(e.idx);
    }
    next_label += frontier_nnz;
    run.depth += 1;
    run.last_width = frontier_nnz;
    frontier = std::move(step.next);
    // Escape detection for the repair cone: a level that pushes past the
    // cap means this cone is labeling vertices outside its expected
    // component (a delta merged components) — return the overshooting
    // counter instead of flooding the merged blob. The level that crossed
    // the cap HAS already written labels; the caller discards the vector.
    if (label_cap >= 0 && next_label > label_cap) break;
  }
  run.next_label = next_label;
  run.last_frontier = std::move(frontier);
  return run;
}

}  // namespace drcm::rcm
