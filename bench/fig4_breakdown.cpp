// Figure 4: runtime breakdown of distributed RCM per matrix and core count
// — the five stacked components Peripheral:{SpMSpV, Other} and
// Ordering:{SpMSpV, Sorting, Other}.
//
// Methodology: the algorithm's execution trace (per-level
// frontier sizes and expansion volumes, peripheral sweep count) is
// collected from the real implementation, then projected through the same
// alpha-beta-gamma model the paper's Sec. IV-B analysis uses, at the
// paper's core counts with 6 threads/process. Small grids are additionally
// executed for real on the thread-backed runtime to validate the model's
// phase proportions.
//
// Expected shape: SpMSpV dominates at low concurrency; Ordering:Sorting
// (the all-process AlltoAll) grows to dominate at high concurrency;
// high-diameter matrices stop scaling earlier than low-diameter ones.
#include <cstdio>

#include "bench/suite.hpp"
#include "dist/level_kernel.hpp"
#include "mpsim/runtime.hpp"
#include "rcm/dist_bfs.hpp"
#include "rcm/rcm_driver.hpp"
#include "rcm/trace_model.hpp"

int main(int argc, char** argv) {
  using namespace drcm;
  const double scale = bench::scale_from_args(argc, argv, 2.0);
  const auto suite = bench::make_suite(scale);

  std::printf("Figure 4: distributed RCM runtime breakdown (modeled seconds, "
              "6 threads/process; scale %.2f)\n\n", scale);

  for (const auto& e : suite) {
    const auto trace = rcm::ExecutionTrace::collect(e.pattern);
    std::printf("%s  (paper: %s)  n=%lld nnz=%lld pseudo-diameter=%lld "
                "sweeps=%d\n",
                e.name.c_str(), e.paper.matrix,
                static_cast<long long>(trace.n),
                static_cast<long long>(trace.nnz),
                static_cast<long long>(trace.pseudo_diameter),
                trace.peripheral_sweeps);
    std::printf("  %6s %12s %12s %12s %12s %12s %12s %9s\n", "cores",
                "Per:SpMSpV", "Per:Other", "Ord:SpMSpV", "Ord:Sort",
                "Ord:Other", "total", "speedup");
    const double t1 = rcm::project_cost(trace, 1, 1).total();
    for (const int cores : {1, 6, 24, 54, 216, 1014, 4056}) {
      const int threads = cores >= 6 ? 6 : 1;
      const auto c = rcm::project_cost(trace, cores, threads);
      std::printf("  %6d %12.5f %12.5f %12.5f %12.5f %12.5f %12.5f %8.1fx\n",
                  cores, c.peripheral_spmspv.total(),
                  c.peripheral_other.total(), c.ordering_spmspv.total(),
                  c.ordering_sort.total(), c.ordering_other.total(), c.total(),
                  t1 / c.total());
    }

    std::printf("\n");
  }

  // Validation: real thread-backed runs of the two headline matrices (at
  // scale 1 to keep the SPMD runs quick) report the same phases from
  // actual execution (charged via the identical cost model).
  const auto small = bench::make_suite(1.0);
  for (int i = 0; i < 2; ++i) {
    const auto& e = small[static_cast<std::size_t>(i)];
    std::printf("validation, real SPMD runs of %s: ", e.name.c_str());
    for (const int p : {1, 4}) {
      const auto run = rcm::run_dist_rcm(p, e.pattern);
      double spmspv = 0, sort = 0, other = 0;
      spmspv += run.report.aggregate(mps::Phase::kPeripheralSpmspv).max.model_total();
      spmspv += run.report.aggregate(mps::Phase::kOrderingSpmspv).max.model_total();
      sort += run.report.aggregate(mps::Phase::kOrderingSort).max.model_total();
      other += run.report.aggregate(mps::Phase::kPeripheralOther).max.model_total();
      other += run.report.aggregate(mps::Phase::kOrderingOther).max.model_total();
      std::printf("p=%d charged{spmspv %.4fs, sort %.4fs, other %.4fs}  ", p,
                  spmspv, sort, other);
    }
    std::printf("\n");
  }
  std::printf("\n");

  // Synchrony budget: the barrier-crossing ledger of one real p=4 run.
  // The fused level kernel (dist::bfs_level_step) spends 3 crossings per
  // BFS level; the unfused primitive chain (SET -> SpMSpV's three
  // collectives -> SELECT -> emptiness AllReduce) spends 8. Measured, not
  // asserted: the phases isolate each path's ledger.
  {
    std::uint64_t fused_one = 0, unfused_one = 0;
    double fused_avg = 0;
    const auto a = small[0].pattern;
    const auto report = mps::Runtime::run(4, [&](mps::Comm& world) {
      dist::ProcGrid2D grid(world);
      dist::DistSpMat mat(grid, a);
      dist::DistDenseVec levels(mat.vec_dist(), grid, kNoVertex);
      if (levels.owns(0)) levels.set(0, 0);
      dist::DistSpVec frontier(mat.vec_dist(), grid);
      if (frontier.lo() <= 0 && 0 < frontier.hi()) {
        frontier.assign({dist::VecEntry{0, 0}});
      }
      dist::bfs_level_step(mat, frontier, levels, kNoVertex, grid,
                           mps::Phase::kOrderingSpmspv,
                           mps::Phase::kOrderingOther);
      dist::bfs_level_step_unfused(mat, frontier, levels, kNoVertex, grid,
                                   mps::Phase::kPeripheralSpmspv,
                                   mps::Phase::kPeripheralOther);
      // A whole fused BFS: eccentricity+1 level steps, 3 crossings each.
      const auto bfs = rcm::dist_bfs(mat, 0, levels, grid,
                                     mps::Phase::kSolver, mps::Phase::kSolver);
      if (world.rank() == 0) {
        fused_avg = static_cast<double>(
                        world.stats().phase(mps::Phase::kSolver).barrier_crossings) /
                    static_cast<double>(bfs.eccentricity + 1);
      }
    });
    fused_one =
        report.aggregate(mps::Phase::kOrderingSpmspv).max.barrier_crossings +
        report.aggregate(mps::Phase::kOrderingOther).max.barrier_crossings;
    unfused_one =
        report.aggregate(mps::Phase::kPeripheralSpmspv).max.barrier_crossings +
        report.aggregate(mps::Phase::kPeripheralOther).max.barrier_crossings;
    std::printf("collective crossings per BFS level (real p=4 run of %s):\n"
                "  fused level kernel %llu, unfused primitive chain %llu; "
                "full fused BFS averages %.2f/level\n\n",
                small[0].name.c_str(),
                static_cast<unsigned long long>(fused_one),
                static_cast<unsigned long long>(unfused_one), fused_avg);
  }

  // The ordering-level split: one WHOLE Cuthill-McKee ordering level (BFS
  // level + SORTPERM + label scatter) through the fused dist::cm_level_step
  // vs the reference chain, on identical inputs. Fused: 3 SpMSpV-side + 2
  // sort-side crossings. Unfused: 3 + the standalone SORTPERM's 6 (parked
  // on the kSolver phase below).
  {
    const auto a = small[0].pattern;
    const auto report = mps::Runtime::run(4, [&](mps::Comm& world) {
      dist::ProcGrid2D grid(world);
      dist::DistSpMat mat(grid, a);
      const auto degrees = mat.degrees(grid);
      dist::DistSpVec frontier(mat.vec_dist(), grid);
      if (frontier.lo() <= 0 && 0 < frontier.hi()) {
        frontier.assign({dist::VecEntry{0, 0}});
      }
      dist::DistDenseVec labels_f(mat.vec_dist(), grid, kNoVertex);
      if (labels_f.owns(0)) labels_f.set(0, 0);
      dist::cm_level_step(mat, frontier, labels_f, degrees, 0, 1, 1, grid,
                          mps::Phase::kOrderingSpmspv,
                          mps::Phase::kOrderingSort,
                          mps::Phase::kOrderingOther);
      dist::DistDenseVec labels_u(mat.vec_dist(), grid, kNoVertex);
      if (labels_u.owns(0)) labels_u.set(0, 0);
      dist::cm_level_step_unfused(mat, frontier, labels_u, degrees, 0, 1, 1,
                                  grid, mps::Phase::kPeripheralSpmspv,
                                  mps::Phase::kSolver,
                                  mps::Phase::kPeripheralOther);
    });
    const auto fused_spmspv =
        report.aggregate(mps::Phase::kOrderingSpmspv).max.barrier_crossings +
        report.aggregate(mps::Phase::kOrderingOther).max.barrier_crossings;
    const auto fused_sort =
        report.aggregate(mps::Phase::kOrderingSort).max.barrier_crossings;
    const auto unfused_sort =
        report.aggregate(mps::Phase::kSolver).max.barrier_crossings;
    const auto unfused_total =
        report.aggregate(mps::Phase::kPeripheralSpmspv).max.barrier_crossings +
        report.aggregate(mps::Phase::kPeripheralOther).max.barrier_crossings +
        unfused_sort;
    std::printf("collective crossings per ORDERING level (real p=4 run of "
                "%s):\n"
                "  fused cm_level_step %llu (%llu SpMSpV + %llu sort), "
                "unfused chain %llu (3 + SORTPERM's %llu)\n\n",
                small[0].name.c_str(),
                static_cast<unsigned long long>(fused_spmspv + fused_sort),
                static_cast<unsigned long long>(fused_spmspv),
                static_cast<unsigned long long>(fused_sort),
                static_cast<unsigned long long>(unfused_total),
                static_cast<unsigned long long>(unfused_sort));
  }
  std::printf("shape check: Ord:Sort share rises with cores; "
              "low-diameter matrices keep scaling past 1K cores; fused "
              "level kernel holds at <=3 crossings/level vs ~8 unfused, "
              "and a whole fused ordering level at <=5 vs 9.\n");
  return 0;
}
