// Distributed execution tour: run the paper's algorithm on real (simulated)
// process grids of growing size, watch the per-phase cost breakdown, and
// verify that the ordering never changes with the grid; run the fully
// distributed ordered_solve pipeline (RCM -> one-shot redistribution
// straight to the 1D row blocks -> distributed CG, no gathered CSR) and
// watch the per-rank resident ledger shrink with the grid — then project
// the same execution to Edison-scale core counts with the trace model.
//
// The ordered_solve section enforces the ledger regression gate: the
// per-rank resident peak must STRICTLY decrease across p = 4 -> 9 -> 16.
// `--json FILE` additionally emits the redistribution words-moved and
// peak-resident numbers per grid (the "after" side of BENCH_2.json, whose
// "before" side records the since-deleted two-hop route).
//
//   $ ./examples/distributed_scaling [--json BENCH_2.json]
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/timer.hpp"
#include "rcm/rcm_driver.hpp"
#include "rcm/trace_model.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"

int main(int argc, char** argv) {
  using namespace drcm;
  namespace gen = sparse::gen;

  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::printf("usage: %s [--json FILE]\n", argv[0]);
      return 1;
    }
  }

  // An elongated 3D shell arriving scattered: the ldoor regime (high
  // diameter, RCM-friendly).
  const auto a = gen::relabel_random(gen::grid3d(6, 6, 90, gen::Stencil3d::k27), 11);
  std::printf("matrix: n=%lld nnz=%lld input bandwidth=%lld\n\n",
              static_cast<long long>(a.n()), static_cast<long long>(a.nnz()),
              static_cast<long long>(sparse::bandwidth(a)));

  std::printf("real SPMD runs (thread-backed ranks on this machine):\n");
  std::printf("%6s %10s %12s %12s %12s %10s\n", "ranks", "wall (s)",
              "spmspv chg", "sort chg", "other chg", "bandwidth");
  std::vector<index_t> reference;
  for (const int p : {1, 4, 9, 16}) {
    WallTimer t;
    const auto run = rcm::run_dist_order(p, a);
    const double wall = t.seconds();
    double spmspv = 0, sort = 0, other = 0;
    spmspv += run.report.aggregate(mps::Phase::kPeripheralSpmspv).max.model_total();
    spmspv += run.report.aggregate(mps::Phase::kOrderingSpmspv).max.model_total();
    sort += run.report.aggregate(mps::Phase::kOrderingSort).max.model_total();
    other += run.report.aggregate(mps::Phase::kPeripheralOther).max.model_total();
    other += run.report.aggregate(mps::Phase::kOrderingOther).max.model_total();
    const auto bw = sparse::bandwidth_with_labels(a, run.labels);
    std::printf("%6d %10.3f %12.5f %12.5f %12.5f %10lld\n", p, wall, spmspv,
                sort, other, static_cast<long long>(bw));
    if (reference.empty()) {
      reference = run.labels;
    } else if (run.labels != reference) {
      std::printf("ERROR: ordering changed with the grid size!\n");
      return 1;
    }
  }
  std::printf("ordering is bit-identical on every grid "
              "(the paper's quality-insensitivity claim, exactly).\n\n");

  // The Figure-1 pipeline end to end, fully distributed: ordering, one-shot
  // streaming redistribution (values riding the single alltoallv straight
  // to the 1D owners), and block-Jacobi CG all on the grid. peak-resident
  // is the mpsim ledger's per-rank high-water mark — it SHRINKS with the
  // grid, where a gathered permuted CSR would pin ~n + 2*nnz elements on
  // every rank.
  const auto m = gen::with_laplacian_values(a, 0.02);
  std::vector<double> b(static_cast<std::size_t>(m.n()));
  for (index_t i = 0; i < m.n(); ++i) {
    b[static_cast<std::size_t>(i)] =
        1.0 + 0.5 * static_cast<double>((i * 2654435761u) % 1000) / 1000.0;
  }
  const auto gathered =
      static_cast<unsigned long long>(m.n() + 1) +
      2 * static_cast<unsigned long long>(m.nnz());
  std::printf("ordered_solve pipeline (RCM -> one-shot redistribute -> CG), "
              "rtol 1e-8; gathered-CSR footprint would be %llu\n", gathered);
  std::printf("(redist words / peak-resident are per-rank maxima):\n");
  std::printf("%6s %8s %12s %14s %14s\n", "ranks", "iters", "bandwidth",
              "redist words", "peak-resident");
  struct Point {
    int ranks;
    unsigned long long words, peak;
  };
  std::vector<Point> points;
  for (const int p : {1, 4, 9, 16}) {
    solver::CgOptions opt;
    opt.rtol = 1e-8;
    const auto run =
        rcm::run_ordered_solve_recoverable(p, {.matrix = &m, .b = b, .cg = opt});
    if (!run.result.cg.converged) {
      std::printf("ERROR: pipeline did not converge at p=%d\n", p);
      return 1;
    }
    Point pt;
    pt.ranks = p;
    pt.words = run.report.aggregate(mps::Phase::kRedistribute).max.words;
    pt.peak = run.report.max_peak_resident();
    points.push_back(pt);
    std::printf("%6d %8d %12lld %14llu %14llu\n", p, run.result.cg.iterations,
                static_cast<long long>(run.result.permuted_bandwidth),
                pt.words, pt.peak);
    // The pipeline's bandwidth must agree with the grid-insensitive
    // ordering above. (Iterations may differ BETWEEN rank counts — p
    // preconditioner blocks — but each equals run_dist_pcg's, pinned.)
    if (run.result.permuted_bandwidth !=
        sparse::bandwidth_with_labels(a, reference)) {
      std::printf("ERROR: permuted bandwidth disagrees with the ordering!\n");
      return 1;
    }
    // The headline claim, checked for real: from q = 3 on, no rank's
    // ledger peak may reach the gathered-CSR footprint.
    if (p >= 9 && run.report.max_peak_resident() >= gathered) {
      std::printf("ERROR: p=%d ledger peak %llu reached the gathered "
                  "footprint %llu!\n", p,
                  static_cast<unsigned long long>(run.report.max_peak_resident()),
                  gathered);
      return 1;
    }
  }
  // The ledger-regression gate: the O(nnz/p + n/p) contract means
  // the per-rank peak must STRICTLY decrease as the grid grows. A flat or
  // rising step means some stage re-grew an O(n) or O(nnz/q) resident.
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].ranks < 4) continue;  // p=1 has no distribution to shrink
    if (points[i].peak >= points[i - 1].peak) {
      std::printf("ERROR: ledger regression: peak did not decrease from "
                  "p=%d (%llu) to p=%d (%llu)!\n", points[i - 1].ranks,
                  points[i - 1].peak, points[i].ranks, points[i].peak);
      return 1;
    }
  }
  std::printf("ledger-regression holds: per-rank peak strictly decreases "
              "with p, and stays below the gathered footprint from p=9 on.\n\n");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::printf("ERROR: cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"one_shot_redistribution\",\n");
    std::fprintf(f, "  \"matrix\": {\"n\": %lld, \"nnz\": %lld},\n",
                 static_cast<long long>(m.n()),
                 static_cast<long long>(m.nnz()));
    std::fprintf(f, "  \"gathered_csr_elements\": %llu,\n", gathered);
    std::fprintf(f, "  \"units\": {\"words\": \"per-rank max words moved in "
                 "Phase::kRedistribute\", \"peak_resident\": \"per-rank max "
                 "ledger elements\"},\n");
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& pt = points[i];
      std::fprintf(f,
                   "    {\"ranks\": %d, \"after\": {\"redistribute_words\": "
                   "%llu, \"peak_resident\": %llu}}%s\n",
                   pt.ranks, pt.words, pt.peak,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n\n", json_path);
  }

  std::printf("trace-model projection to Edison-scale (6 threads/process):\n");
  std::printf("%6s %14s %10s\n", "cores", "modeled (s)", "speedup");
  const auto trace = rcm::ExecutionTrace::collect(a);
  const double t1 = rcm::project_cost(trace, 1, 1).total();
  for (const int cores : {1, 6, 24, 54, 216, 1014}) {
    const auto c = rcm::project_cost(trace, cores, cores >= 6 ? 6 : 1);
    std::printf("%6d %14.5f %9.1fx\n", cores, c.total(), t1 / c.total());
  }
  return 0;
}
