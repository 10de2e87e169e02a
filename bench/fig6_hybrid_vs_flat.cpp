// Figure 6: flat MPI (1 thread/process) vs the hybrid OpenMP-MPI
// configuration (6 threads/process) on the ldoor stand-in.
//
// Two views of the same comparison:
//   * modeled (trace projection): the paper-scale core sweep. Expected
//     shape: comparable at low core counts, with flat MPI several times
//     slower at thousands of cores — its SORTPERM AlltoAll spans 6x more
//     processes (the paper reports 5x at 4096 cores on ldoor).
//   * measured (executed): the hybrid node-level SpMSpV actually runs — a
//     ~24-core budget spent as 25 flat ranks versus 4 ranks x 6 OpenMP
//     threads (one communicating thread per rank, as in the paper). Both
//     configurations produce the bit-identical ordering; the hybrid one
//     must not be slower in wall time, since it buys the same parallelism
//     with a 6x smaller synchronization group.
#include <cstdio>

#include "bench/suite.hpp"
#include "rcm/rcm_driver.hpp"
#include "rcm/trace_model.hpp"

int main(int argc, char** argv) {
  using namespace drcm;
  const double scale = bench::scale_from_args(argc, argv, 2.0);
  const auto suite = bench::make_suite(scale);
  // Selected by NAME: `--scale` sweeps (and any suite reordering) must not
  // silently re-point the figure at a different stand-in.
  const auto& ldoor = bench::entry_named(suite, "shell3d");

  const auto trace = rcm::ExecutionTrace::collect(ldoor.pattern);
  std::printf("Figure 6: flat MPI vs hybrid (6 threads/process), %s "
              "(paper: ldoor; modeled seconds; scale %.2f)\n\n",
              ldoor.name.c_str(), scale);
  std::printf("%6s %14s %14s %10s\n", "cores", "flat MPI", "hybrid t=6",
              "flat/hyb");
  bench::rule(50);
  double final_ratio = 0.0;
  for (const int cores : {1, 6, 24, 54, 216, 1014, 4056}) {
    const auto flat = rcm::project_cost(trace, cores, 1);
    const auto hybrid =
        rcm::project_cost(trace, cores, cores >= 6 ? 6 : 1);
    final_ratio = flat.total() / hybrid.total();
    std::printf("%6d %14.5f %14.5f %9.2fx\n", cores, flat.total(),
                hybrid.total(), final_ratio);
  }
  bench::rule(50);
  std::printf("shape check: ratio ~1x at low cores, several-x at 4056 "
              "(paper: ~5x); got %.2fx\n\n", final_ratio);

  // Measured: the executed hybrid path at one node's core budget. Flat
  // spends it as 25 single-threaded ranks (the nearest square process
  // grid); hybrid as 4 ranks x 6 threads, communication staying on one
  // thread per rank. Wall times are makespans over the simulated ranks.
  std::printf("measured (executed hybrid SpMSpV, ~24-core budget):\n");
  std::printf("%-22s %10s %12s %12s\n", "config", "procs", "wall (s)",
              "modeled (s)");
  bench::rule(60);
  rcm::DistRcmOptions flat_opt;  // threads = 1
  const auto flat_run = rcm::run_dist_order(25, ldoor.pattern, flat_opt);
  std::printf("%-22s %10d %12.3f %12.5f\n", "flat MPI p=25 t=1", 25,
              flat_run.report.measured_makespan(),
              flat_run.report.modeled_makespan());
  rcm::DistRcmOptions hybrid_opt;
  hybrid_opt.threads = 6;
  const auto hybrid_run = rcm::run_dist_order(4, ldoor.pattern, hybrid_opt);
  std::printf("%-22s %10d %12.3f %12.5f\n", "hybrid p=4 t=6", 4,
              hybrid_run.report.measured_makespan(),
              hybrid_run.report.modeled_makespan());
  bench::rule(60);
  const double wall_ratio = flat_run.report.measured_makespan() /
                            hybrid_run.report.measured_makespan();
  std::printf("measured flat/hybrid wall ratio: %.2fx (expect >= 1: the "
              "hybrid run syncs 6x fewer processes)\n", wall_ratio);
  std::printf("orderings bit-identical: %s\n",
              flat_run.labels == hybrid_run.labels ? "yes" : "NO (BUG)");
  return 0;
}
