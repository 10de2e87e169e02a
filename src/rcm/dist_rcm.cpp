#include "rcm/dist_rcm.hpp"

#include "dist/level_kernel.hpp"

namespace drcm::rcm {

using dist::DistSpVec;
using dist::VecEntry;

namespace {

/// The fused level loop both entry points share: `frontier` is the owned
/// part of the last labeled level, `column` its column frontier, and its
/// labels occupy [next_label - frontier_nnz, next_label).
CmRun cm_levels(const dist::DistSpMat& a, const dist::DistDenseVec& degrees,
                dist::DistDenseVec& labels, DistSpVec frontier,
                std::vector<VecEntry> column, index_t frontier_nnz,
                index_t next_label, dist::ProcGrid2D& grid,
                std::vector<index_t>* level_starts, index_t label_cap,
                std::vector<index_t>* touched) {
  CmRun run;
  run.last_width = frontier_nnz;
  while (frontier_nnz > 0) {
    // Labels of the current frontier form the contiguous range
    // [next_label - |frontier|, next_label): the bucket boundaries of
    // SORTPERM (paper Sec. IV-B observation).
    const index_t label_lo = next_label - frontier_nnz;
    const index_t label_hi = next_label;

    // One ordering level: Lnext <- SELECT(SPMSPV(A, Lcur), R = -1);
    // R <- SET(R, SORTPERM(Lnext, D) + nv), in three barrier crossings
    // (two on the terminal level). `column` becomes the next level's.
    auto step = dist::cm_level_step(a, column, labels, degrees, label_lo,
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

}  // namespace

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
  // The root's processor column builds the one-entry column frontier
  // locally: the first level needs no collective.
  std::vector<VecEntry> column;
  if (a.cuts().owner_col(root) == grid.col()) {
    column.push_back(VecEntry{root, next_label});
  }
  return cm_levels(a, degrees, labels, std::move(frontier), std::move(column),
                   /*frontier_nnz=*/1, next_label + 1, grid, level_starts,
                   /*label_cap=*/-1, touched);
}

CmRun dist_cm_cone(const dist::DistSpMat& a, const dist::DistDenseVec& degrees,
                   dist::DistDenseVec& labels, DistSpVec frontier,
                   index_t frontier_nnz, index_t next_label,
                   dist::ProcGrid2D& grid, std::vector<index_t>* level_starts,
                   index_t label_cap, std::vector<index_t>* touched) {
  // Re-entry from an owned frontier: one column allgatherv.
  auto column = dist::gather_column_frontier(frontier, labels, grid,
                                             mps::Phase::kOrderingSpmspv);
  return cm_levels(a, degrees, labels, std::move(frontier), std::move(column),
                   frontier_nnz, next_label, grid, level_starts, label_cap,
                   touched);
}

}  // namespace drcm::rcm
