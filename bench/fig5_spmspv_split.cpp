// Figure 5: computation vs communication time inside all SpMSpV calls, per
// matrix and core count (6 threads per process, as in the paper). The
// communication terms model the fused level kernels (column allgatherv,
// owner-direct alltoallv and the count reduction per level, in two
// crossings on a BFS level and three on an ordering level's head — see
// dist/level_kernel.hpp).
//
// Expected shape: computation dominates at low concurrency; communication
// crosses over at a matrix-dependent core count — earlier for high-diameter
// matrices (ldoor stand-in) than for low-diameter ones, because each BFS
// level pays the latency terms once and high-diameter graphs have many
// levels with small frontiers.
#include <cstdio>

#include "bench/suite.hpp"
#include "rcm/trace_model.hpp"
#include "sparse/generators.hpp"

int main(int argc, char** argv) {
  using namespace drcm;
  const double scale = bench::scale_from_args(argc, argv, 2.0);
  const auto suite = bench::make_suite(scale);

  std::printf("Figure 5: SpMSpV computation vs communication (modeled "
              "seconds, 6 threads/process; scale %.2f)\n\n", scale);
  for (const auto& e : suite) {
    const auto trace = rcm::ExecutionTrace::collect(e.pattern);
    std::printf("%s  (paper: %s, pseudo-diameter %lld)\n", e.name.c_str(),
                e.paper.matrix, static_cast<long long>(trace.pseudo_diameter));
    std::printf("  %6s %14s %14s %12s\n", "cores", "computation",
                "communication", "comm share");
    int crossover = -1;
    for (const int cores : {6, 24, 54, 216, 1014, 4056}) {
      const auto c = rcm::project_cost(trace, cores, 6);
      const auto s = c.spmspv();
      const double share = s.comm / (s.comm + s.compute);
      if (crossover < 0 && s.comm > s.compute) crossover = cores;
      std::printf("  %6d %14.5f %14.5f %11.1f%%\n", cores, s.compute, s.comm,
                  100.0 * share);
    }
    if (crossover > 0) {
      std::printf("  crossover: communication exceeds computation at %d "
                  "cores\n\n", crossover);
    } else {
      std::printf("  crossover: not reached up to 4056 cores "
                  "(compute-bound)\n\n");
    }
  }
  // Size sweep (paper Sec. V-D: "the largest two matrices continue to
  // scale on more than 4K cores whereas smaller problems do not"): the
  // crossover core count must move right as the matrix grows.
  std::printf("size sweep, mesh3d_wide cube, crossover cores vs size:\n");
  for (const double s : {1.0, 2.0, 3.0, 4.0}) {
    const auto cube = sparse::gen::grid3d(
        bench::scaled(s, 16), bench::scaled(s, 16), bench::scaled(s, 16),
        sparse::gen::Stencil3d::k27);
    const auto tr = rcm::ExecutionTrace::collect(cube);
    int crossover = -1;
    for (const int cores : {6, 24, 54, 216, 1014, 4056, 16224}) {
      const auto c = rcm::project_cost(tr, cores, 6);
      if (c.spmspv().comm > c.spmspv().compute) {
        crossover = cores;
        break;
      }
    }
    std::printf("  nnz %10lld -> crossover at %d cores\n",
                static_cast<long long>(cube.nnz()), crossover);
  }
  std::printf("\nshape check: high-diameter stand-ins (shell3d, kkt_mesh) "
              "cross over earlier than low-diameter ones; crossover moves "
              "right as matrices grow (the paper's matrices are 100-400x "
              "larger, placing their crossovers at hundreds to thousands "
              "of cores).\n");
  return 0;
}
