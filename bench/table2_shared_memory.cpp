// Table II: shared-memory RCM (SpMP stand-in) vs the distributed
// implementation — ordering quality and runtime.
//
// Columns reproduce the paper's table: the shared-memory baseline's
// bandwidth and runtimes at 1/6/24 threads, and the distributed
// implementation's runtimes at the same core counts. On this machine the
// 1/2-thread (and 1/4-rank) entries are real measured wall times; the
// larger configurations are modeled via the execution trace (marked '~').
// The paper's narrative to check: the shared-memory baseline is faster
// within one node, but the distributed code avoids the
// gather-to-one-node step (quantified by the final column) and matches or
// beats SpMP's bandwidth on most matrices.
#include <cstdio>

#include "bench/suite.hpp"
#include "common/timer.hpp"
#include "mpsim/cost_model.hpp"
#include "order/rcm_shared.hpp"
#include "rcm/rcm_driver.hpp"
#include "rcm/trace_model.hpp"
#include "sparse/metrics.hpp"

int main(int argc, char** argv) {
  using namespace drcm;
  const double scale = bench::scale_from_args(argc, argv);
  const auto suite = bench::make_suite(scale);
  const mps::MachineParams machine;

  std::printf("Table II: shared-memory RCM (SpMP stand-in) vs distributed "
              "RCM (scale %.2f)\n", scale);
  std::printf("t1/t2 measured on this machine; ~t6/~t24 modeled at Edison "
              "constants. gather = modeled cost of collecting the matrix "
              "on one node from 1024 cores (the step our approach "
              "removes).\n\n");
  std::printf("%-14s %9s | %8s %8s %8s | %8s %8s %8s | %9s %9s %7s\n",
              "stand-in", "BW(RCM)", "sm t1", "sm t2", "~sm t24", "dist p1",
              "dist p4", "~d t1014", "gather", "gat+sm24", "winner");
  bench::rule(120);

  for (const auto& e : suite) {
    const auto& a = e.pattern;

    // Shared-memory baseline, measured at 1 and 2 threads.
    WallTimer t;
    const auto labels1 = order::rcm_shared(a, 1);
    const double sm1 = t.seconds();
    t.reset();
    const auto labels2 = order::rcm_shared(a, 2);
    const double sm2 = t.seconds();
    const auto bw = sparse::bandwidth_with_labels(a, labels1);

    // Modeled 24-thread shared-memory time: compute-only trace at 24 cores,
    // one process (no communication inside a node).
    const auto trace = rcm::ExecutionTrace::collect(a);
    const double sm24 = rcm::project_cost(trace, 24, 24, machine).total();

    // Distributed: measured at 1 and 4 ranks, modeled at 24 cores (t=6).
    t.reset();
    const auto run1 = rcm::run_dist_order(1, a);
    const double d1 = t.seconds();
    t.reset();
    const auto run4 = rcm::run_dist_order(4, a);
    const double d4 = t.seconds();
    const double d1014 = rcm::project_cost(trace, 1014, 6, machine).total();

    // Gather-to-one-node cost: every rank of a 1024-core job ships its
    // share of the matrix to rank 0 (2 words per nonzero + row pointers).
    const double gather =
        machine.alpha * 1023.0 +
        machine.beta * (2.0 * static_cast<double>(a.nnz()) +
                        static_cast<double>(a.n()));

    const double alt = gather + sm24;
    std::printf("%-14s %9lld | %8.3f %8.3f %8.4f | %8.3f %8.3f %8.4f | %9.4f %9.4f %7s\n",
                e.name.c_str(), static_cast<long long>(bw), sm1, sm2, sm24, d1,
                d4, d1014, gather, alt, d1014 < alt ? "dist" : "gather");

    // The distributed and shared-memory orderings must agree bit-for-bit.
    if (labels1 != run1.labels || labels2 != run4.labels) {
      std::printf("  ERROR: ordering mismatch between implementations!\n");
      return 1;
    }
  }
  bench::rule(120);

  // At bench scale the gather is cheap because the matrices are 100-400x
  // smaller than the paper's; the gather term scales linearly with nnz
  // while the distributed time divides its compute by the core count.
  // Project both at the TRUE nlpkkt240 size (78M rows, 760M nnz, pseudo-
  // diameter 243, paper: gather took ~9s = 3x the distributed RCM time).
  {
    rcm::ExecutionTrace big;
    big.n = 78'000'000;
    big.nnz = 760'000'000;
    big.components = 1;
    big.peripheral_sweeps = 4;
    big.pseudo_diameter = 243;
    const index_t levels = big.pseudo_diameter + 1;
    const rcm::LevelTrace lvl{big.n / levels, big.nnz / levels, big.n / levels};
    // The speculative George-Liu shape: the first sweep plain, the last
    // one the ordering, the ones between discarded.
    for (index_t l = 0; l < levels; ++l) {
      big.peripheral_levels.push_back(lvl);
      big.ordering_levels.push_back(lvl);
      for (int s = 2; s < big.peripheral_sweeps; ++s) {
        big.discarded_levels.push_back(lvl);
      }
    }
    const double d1014 = rcm::project_cost(big, 1014, 6, machine).total();
    const double gather =
        machine.alpha * 1023.0 +
        machine.beta * (2.0 * static_cast<double>(big.nnz) +
                        static_cast<double>(big.n));
    const double sm24 = rcm::project_cost(big, 24, 24, machine).total();
    std::printf("\nprojection at true nlpkkt240 size (760M nnz): "
                "~d t1014 = %.2fs vs gather %.2fs + ~sm24 %.2fs = %.2fs -> "
                "winner: %s (paper: gather alone took ~3x the distributed "
                "RCM time)\n",
                d1014, gather, sm24, gather + sm24,
                d1014 < gather + sm24 ? "dist" : "gather");
  }

  std::printf("\nshape check (paper Sec. V-C): within one node the shared-"
              "memory code wins (sm t1 < dist p1); once the matrix is "
              "already distributed at scale, gathering it to one node "
              "costs more than ordering it in place.\n");
  return 0;
}
