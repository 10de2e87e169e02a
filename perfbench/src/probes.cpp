// Per-layer probes: direct, timed calls into each layer's public functions
// on inputs taken from the workload (traced runs only).
//
//   mpsim   barrier, allreduce (one word) and alltoallv (1024 words to each
//           of 4 ranks) per call at p=4; one empty Runtime::run(4) launch.
//   dist    spmspv_select2nd_min and sortperm_bucket / sortperm_sample per
//           call at p=1 and p=4 on the widest BFS level of the workload's
//           largest input; redistribute_to_row_blocks at p=4 on its first.
//   solver  dist_pcg (block Jacobi) at p=4 on the redistributed first input.
//   service fingerprint_pattern_serial over all inputs.
//   order   rcm_serial over all inputs, against rcm::run_dist_order at p=1
//           and p=4: the COST ratios.
#include <algorithm>
#include <functional>
#include <string>

#include "dist/dist_matrix.hpp"
#include "dist/redistribute.hpp"
#include "dist/sortperm.hpp"
#include "dist/spmspv.hpp"
#include "order/rcm_serial.hpp"
#include "perfbench.hpp"
#include "rcm/rcm_driver.hpp"
#include "service/fingerprint.hpp"
#include "solver/dist_cg.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"

namespace perfbench {

namespace {

namespace dist = drcm::dist;
namespace mps = drcm::mps;
using drcm::sparse::CsrMatrix;
using dist::VecEntry;

/// Runs `call` once to warm up, then `rounds` rounds of `inner` calls
/// between barriers; rank 0 appends each round's per-call seconds to `per`.
void timed_rounds(mps::Comm& world, int rounds, int inner,
                  const std::function<void()>& call, std::vector<double>& per) {
  call();
  for (int r = 0; r < rounds; ++r) {
    world.barrier();
    const double t0 = now_s();
    for (int i = 0; i < inner; ++i) call();
    world.barrier();
    if (world.rank() == 0) per.push_back((now_s() - t0) / inner);
  }
}

constexpr int kRounds = 7;

double mpsim_call_us(int inner, const std::function<void(mps::Comm&)>& op) {
  std::vector<double> per;
  mps::Runtime::run(kRanks, [&](mps::Comm& world) {
    timed_rounds(world, kRounds, inner, [&] { op(world); }, per);
  });
  return 1e6 * median(per);
}

void probe_mpsim(Report& report, Tracer& tracer) {
  ScopedSpan span(tracer, "probe mpsim", "probe");
  report.metric("mpsim.barrier_us",
                mpsim_call_us(2000, [](mps::Comm& w) { w.barrier(); }), "us",
                "p=4, median of 7 rounds x 2000");
  report.metric("mpsim.allreduce_us",
                mpsim_call_us(2000,
                              [](mps::Comm& w) {
                                (void)w.allreduce(u64{1},
                                                  [](u64 a, u64 b) { return a + b; });
                              }),
                "us", "p=4, one word, median of 7 rounds x 2000");
  const std::vector<std::vector<index_t>> send(kRanks, std::vector<index_t>(1024, 7));
  report.metric("mpsim.alltoallv_us",
                mpsim_call_us(500, [&](mps::Comm& w) { (void)w.alltoallv(send); }),
                "us", "p=4, 1024 words to each rank, median of 7 rounds x 500");
  std::vector<double> launches;
  for (int i = 0; i < 101; ++i) {
    const double t0 = now_s();
    mps::Runtime::run(kRanks, [](mps::Comm&) {});
    launches.push_back(now_s() - t0);
  }
  report.metric("mpsim.launch_ms", 1e3 * median(launches), "ms",
                "empty Runtime::run(4), median of 101");
}

/// The widest BFS level (from the min-degree vertex) of `a`: the SpMSpV
/// input is the level before it (value = BFS label), the SORTPERM input is
/// the level itself (value = smallest parent label).
struct Frontier {
  std::vector<VecEntry> spmspv_x, sort_x;
  index_t label_lo = 0, label_hi = 0;
};

Frontier widest_level(const CsrMatrix& a) {
  const index_t n = a.n();
  index_t root = 0;
  for (index_t v = 1; v < n; ++v) {
    if (a.degree(v) < a.degree(root)) root = v;
  }
  std::vector<index_t> level(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<index_t>> levels{{root}};
  level[static_cast<std::size_t>(root)] = 0;
  while (true) {
    std::vector<index_t> next;
    for (const index_t u : levels.back()) {
      for (const index_t v : a.row(u)) {
        if (level[static_cast<std::size_t>(v)] < 0) {
          level[static_cast<std::size_t>(v)] = static_cast<index_t>(levels.size());
          next.push_back(v);
        }
      }
    }
    if (next.empty()) break;
    std::sort(next.begin(), next.end());
    levels.push_back(std::move(next));
  }
  std::size_t wide = 1;
  for (std::size_t l = 1; l < levels.size(); ++l) {
    if (levels[l].size() > levels[wide].size()) wide = l;
  }
  std::vector<index_t> label(static_cast<std::size_t>(n), -1);
  index_t next_label = 0;
  Frontier f;
  for (std::size_t l = 0; l < wide; ++l) {
    if (l + 1 == wide) f.label_lo = next_label;
    for (const index_t v : levels[l]) label[static_cast<std::size_t>(v)] = next_label++;
  }
  f.label_hi = next_label;
  for (const index_t v : levels[wide - 1]) {
    f.spmspv_x.push_back({v, label[static_cast<std::size_t>(v)]});
  }
  for (const index_t v : levels[wide]) {
    index_t parent = f.label_hi;
    for (const index_t u : a.row(v)) {
      const index_t lu = label[static_cast<std::size_t>(u)];
      if (lu >= f.label_lo && lu < f.label_hi) parent = std::min(parent, lu);
    }
    f.sort_x.push_back({v, parent});
  }
  return f;
}

std::vector<VecEntry> owned(const std::vector<VecEntry>& all, index_t lo, index_t hi) {
  std::vector<VecEntry> mine;
  for (const auto& e : all) {
    if (e.idx >= lo && e.idx < hi) mine.push_back(e);
  }
  return mine;
}

void probe_dist_kernels(const CsrMatrix& a, Report& report, Tracer& tracer) {
  ScopedSpan span(tracer, "probe dist kernels", "probe");
  const Frontier f = widest_level(a);
  const std::string note = "frontier of " + std::to_string(f.sort_x.size()) +
                           ", median of 7 rounds";
  report.metric("dist.frontier_nnz", static_cast<double>(f.sort_x.size()), "count",
                "widest BFS level of the largest input");
  for (const int p : {1, kRanks}) {
    const std::string ps = "_p" + std::to_string(p);
    std::vector<double> spmspv, bucket, sample;
    std::vector<int> agree(static_cast<std::size_t>(p), 0);
    mps::Runtime::run(p, [&](mps::Comm& world) {
      dist::ProcGrid2D grid(world);
      dist::DistSpMat mat(grid, a);
      dist::DistSpVec x(mat.vec_dist(), grid);
      x.assign(owned(f.spmspv_x, x.lo(), x.hi()));
      timed_rounds(world, kRounds, 20, [&] {
        (void)dist::spmspv_select2nd_min(mat, x, grid, dist::SpmspvAccumulator::kAuto);
      }, spmspv);

      const dist::VectorDist vdist(a.n(), grid.q());
      dist::DistDenseVec degrees(vdist, grid, 0);
      for (index_t g = degrees.lo(); g < degrees.hi(); ++g) degrees.set(g, a.degree(g));
      dist::DistSpVec s(vdist, grid);
      s.assign(owned(f.sort_x, s.lo(), s.hi()));
      dist::DistSpVec by_bucket, by_sample;
      timed_rounds(world, kRounds, 20, [&] {
        by_bucket = dist::sortperm_bucket(s, degrees, f.label_lo, f.label_hi, grid);
      }, bucket);
      timed_rounds(world, kRounds, 20, [&] {
        by_sample = dist::sortperm_sample(s, degrees, grid);
      }, sample);
      agree[static_cast<std::size_t>(world.rank())] =
          by_bucket.entries() == by_sample.entries();
    });
    report.check(std::all_of(agree.begin(), agree.end(), [](int v) { return v; }),
                 "sortperm_bucket and sortperm_sample disagree at p=" + std::to_string(p));
    report.metric("dist.spmspv" + ps + "_us", 1e6 * median(spmspv), "us", note);
    report.metric("dist.sortperm_bucket" + ps + "_us", 1e6 * median(bucket), "us", note);
    report.metric("dist.sortperm_sample" + ps + "_us", 1e6 * median(sample), "us", note);
  }
}

void probe_redistribute_and_solve(const CsrMatrix& a, Report& report,
                                  Tracer& tracer) {
  ScopedSpan span(tracer, "probe redistribute + dist_pcg", "probe");
  const CsrMatrix m = drcm::sparse::gen::with_laplacian_values(a, 0.02);
  const auto labels = drcm::order::rcm_serial(a);
  const index_t serial_bw = drcm::sparse::bandwidth_with_labels(a, labels);
  std::vector<double> redist, solve;
  std::vector<int> iterations(kRanks, -1);
  std::vector<int> ok(kRanks, 0);
  mps::Runtime::run(kRanks, [&](mps::Comm& world) {
    dist::ProcGrid2D grid(world);
    dist::OneShotRowBlocks out;
    timed_rounds(world, 5, 1, [&] {
      out = dist::redistribute_to_row_blocks(m, labels, grid);
    }, redist);
    const std::vector<double> b(static_cast<std::size_t>(out.block.local_rows()), 1.0);
    drcm::solver::CgResult res;
    bool same = true;
    timed_rounds(world, 3, 1, [&] {
      std::vector<double> x;
      res = drcm::solver::dist_pcg(world, out.block, b, x, true);
      const int r = world.rank();
      same = same && (iterations[static_cast<std::size_t>(r)] < 0 ||
                      iterations[static_cast<std::size_t>(r)] == res.iterations);
      iterations[static_cast<std::size_t>(r)] = res.iterations;
    }, solve);
    ok[static_cast<std::size_t>(world.rank())] =
        same && res.converged && out.bandwidth == serial_bw;
  });
  report.check(std::all_of(ok.begin(), ok.end(), [](int v) { return v; }),
               "probe redistribution or dist_pcg failed");
  report.metric("dist.redistribute_ms", 1e3 * median(redist), "ms",
                "p=4, n=" + std::to_string(a.n()) + ", median of 5");
  report.metric("solver.dist_pcg_ms", 1e3 * median(solve), "ms",
                "p=4, block Jacobi, median of 3");
  report.metric("solver.probe_iterations", iterations[0], "count",
                "CG iterations of the probe solve");
}

void probe_cost(const std::vector<const CsrMatrix*>& inputs, Report& report,
                Tracer& tracer) {
  ScopedSpan span(tracer, "probe COST and fingerprint", "probe");
  std::vector<std::vector<index_t>> refs;
  std::vector<double> fingerprint, serial, p1, p4;
  double levels = 0.0, sweeps = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    double tf = 0.0, ts = 0.0, t1 = 0.0, t4 = 0.0;
    levels = sweeps = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const CsrMatrix& a = *inputs[i];
      double t0 = now_s();
      (void)drcm::service::fingerprint_pattern_serial(a);
      tf += now_s() - t0;
      t0 = now_s();
      auto ref = drcm::order::rcm_serial(a);
      ts += now_s() - t0;
      if (rep == 0) refs.push_back(std::move(ref));
      t0 = now_s();
      const auto r1 = drcm::rcm::run_dist_order(1, a);
      t1 += now_s() - t0;
      t0 = now_s();
      const auto r4 = drcm::rcm::run_dist_order(kRanks, a);
      t4 += now_s() - t0;
      report.check(r1.labels == refs[i] && r4.labels == refs[i],
                   "probe run_dist_order != rcm_serial");
      levels += static_cast<double>(r4.stats.ordering_levels);
      sweeps += r4.stats.peripheral_bfs_sweeps;
    }
    fingerprint.push_back(tf);
    serial.push_back(ts);
    p1.push_back(t1);
    p4.push_back(t4);
  }
  const std::string note = std::to_string(inputs.size()) + " inputs, median of 5";
  report.metric("service.fingerprint_ms", 1e3 * median(fingerprint), "ms", note);
  report.metric("order.rcm_serial_ms", 1e3 * median(serial), "ms", note);
  report.metric("rcm.dist_order_p1_ms", 1e3 * median(p1), "ms", note);
  report.metric("rcm.dist_order_p4_ms", 1e3 * median(p4), "ms", note);
  report.metric("rcm.cost_ratio_p1", median(p1) / median(serial), "x",
                "dist_order p=1 over rcm_serial");
  report.metric("rcm.cost_ratio_p4", median(p4) / median(serial), "x",
                "dist_order p=4 over rcm_serial");
  report.metric("rcm.levels", levels, "count", "summed over the inputs");
  report.metric("rcm.peripheral_sweeps", sweeps, "count", "summed over the inputs");
}

}  // namespace

void run_layer_probes(const std::vector<const CsrMatrix*>& inputs, Report& report,
                      Tracer& tracer) {
  probe_mpsim(report, tracer);
  const CsrMatrix* largest = inputs.front();
  for (const auto* a : inputs) {
    if (a->nnz() > largest->nnz()) largest = a;
  }
  probe_dist_kernels(*largest, report, tracer);
  probe_redistribute_and_solve(*inputs.front(), report, tracer);
  probe_cost(inputs, report, tracer);
}

}  // namespace perfbench
