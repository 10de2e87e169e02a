// Figure 6: flat MPI (1 thread/process) vs the hybrid OpenMP-MPI
// configuration (6 threads/process) on the ldoor stand-in.
//
// A trace projection over the paper-scale core sweep. Expected shape:
// comparable at low core counts, with flat MPI several times slower at
// thousands of cores — its SORTPERM AlltoAll spans 6x more processes (the
// paper reports 5x at 4096 cores on ldoor). The hybrid configuration is
// modeled only: on one host the executed thread team lost to one thread
// per rank on most suite inputs (BENCH_7.json), so the runtime runs one
// thread per rank and the projection carries the paper's claim.
#include <cstdio>

#include "bench/suite.hpp"
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
              "(paper: ~5x); got %.2fx\n", final_ratio);
  return 0;
}
