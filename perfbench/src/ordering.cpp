// order_deep and order_wide: closed-loop passes of rcm::run_dist_order.
//
// One pass calls rcm::run_dist_order(4, A) once on each of three suite
// stand-ins (the generators and parameters of bench/suite.hpp), each
// relabeled by a permutation drawn from the workload seed:
//   order_deep (scale 1.0): shell3d, kkt_mesh, banded_nat — high diameter,
//     thousands of barrier crossings per pass, per-level fixed costs rule;
//   order_wide (scale 2.0): cigraph_large, mesh3d_wide, layered_rand — at
//     most a few dozen levels with frontiers of thousands, SpMSpV and
//     SORTPERM volume rule.
// Every ordering is checked bit for bit against order::rcm_serial.
#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "order/rcm_serial.hpp"
#include "perfbench.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"

namespace perfbench {

namespace {

namespace gen = drcm::sparse::gen;
using drcm::sparse::CsrMatrix;

struct OrderingInput {
  std::string name;
  CsrMatrix a;
  std::vector<index_t> reference;  ///< order::rcm_serial(a)
};

index_t scaled(double scale, index_t dim) {
  const auto v = static_cast<index_t>(static_cast<double>(dim) * scale);
  return v < 2 ? 2 : v;
}

std::vector<OrderingInput> make_inputs(bool wide, u64 seed) {
  const double s = wide ? 2.0 : 1.0;
  std::vector<std::pair<std::string, CsrMatrix>> base;
  if (wide) {
    base.emplace_back("cigraph_large", gen::erdos_renyi(scaled(s, 8000), 24.0, 1006));
    base.emplace_back("mesh3d_wide", gen::grid3d(scaled(s, 16), scaled(s, 16),
                                                 scaled(s, 16), gen::Stencil3d::k27));
    base.emplace_back("layered_rand",
                      gen::add_random_long_edges(
                          gen::grid3d(scaled(s, 14), scaled(s, 14), scaled(s, 14),
                                      gen::Stencil3d::k7),
                          0.40, 1002));
  } else {
    base.emplace_back("shell3d", gen::grid3d(scaled(s, 7), scaled(s, 7),
                                             scaled(s, 180), gen::Stencil3d::k27));
    const auto h = gen::grid3d(scaled(s, 8), scaled(s, 8), scaled(s, 100),
                               gen::Stencil3d::k7);
    base.emplace_back("kkt_mesh", gen::kkt_system(h, h.n() / 2, 3));
    base.emplace_back("banded_nat", gen::grid3d(scaled(s, 9), scaled(s, 9),
                                                scaled(s, 56), gen::Stencil3d::k27));
  }
  std::vector<OrderingInput> out;
  u64 salt = 0;
  for (auto& [name, a] : base) {
    OrderingInput in;
    in.name = name;
    in.a = gen::relabel_random(a, drcm::splitmix64(seed ^ drcm::splitmix64(++salt)));
    in.reference = drcm::order::rcm_serial(in.a);
    out.push_back(std::move(in));
  }
  return out;
}

/// One pass's measurements (walls in seconds, ledger values per pass).
struct Pass {
  bool traced = false;
  bool stolen = false;  ///< host steal ticked during the pass
  double wall = 0.0;
  double phase[5] = {0, 0, 0, 0, 0};
  double unattributed = 0.0;
  double crossings = 0.0;
  double words = 0.0;
};

Pass run_pass(const std::vector<OrderingInput>& inputs, std::int64_t op,
              Report& report, Tracer& tracer) {
  Pass pass;
  ScopedSpan pass_span(tracer, "pass", "workload", -1, op);
  for (const auto& in : inputs) {
    ScopedSpan call(tracer, "rcm::run_dist_order " + in.name, "rcm",
                    pass_span.id(), op);
    const double t0 = now_s();
    auto run = drcm::rcm::run_dist_order(kRanks, in.a);
    const double wall = now_s() - t0;
    report.check(run.labels == in.reference,
                 "run_dist_order(" + in.name + ") != rcm_serial");
    pass.wall += wall;
    for (int i = 0; i < 5; ++i) {
      pass.phase[i] += phase_wall_max(run.report, kOrderingPhases[i].phase);
    }
    pass.unattributed += wall - all_phases_wall_max(run.report);
    const double crossings = ordering_crossings_max(run.report);
    pass.crossings += crossings;
    pass.words += ordering_words_max(run.report);
    call.arg("barrier_crossings", crossings);
    call.arg("ordering_wall_ms", 1e3 * ordering_wall_max(run.report));
  }
  return pass;
}

/// Fewest uninterrupted passes worth reporting on their own: the p90 still
/// has ten samples beyond it.
constexpr std::size_t kMinKept = 100;

struct Passes {
  std::vector<Pass> kept;
  std::size_t dropped = 0;  ///< passes interrupted by host steal
};

/// Passes until `budget_s` of uninterrupted passes (at most kMaxStretch *
/// budget_s in all) have run; interrupted passes are dropped when at least
/// kMinKept others remain. With tracing on, every other pass is traced, so
/// traced and untraced passes share one time window.
Passes run_passes(const std::vector<OrderingInput>& inputs, double budget_s,
                  Report& report, Tracer& tracer) {
  Tracer off(false);
  std::vector<Pass> all;
  double clean = 0.0;
  const double start = now_s();
  while (all.empty() ||
         (clean < budget_s && now_s() - start < kMaxStretch * budget_s)) {
    const bool traced = tracer.enabled() && all.size() % 2 == 0;
    const double steal0 = steal_and_total_jiffies().first;
    all.push_back(run_pass(inputs, static_cast<std::int64_t>(all.size()), report,
                           traced ? tracer : off));
    all.back().traced = traced;
    all.back().stolen = steal_and_total_jiffies().first > steal0;
    if (!all.back().stolen) clean += all.back().wall;
  }
  Passes out;
  for (const auto& p : all) {
    if (p.stolen) ++out.dropped;
  }
  if (all.size() - out.dropped < kMinKept) {
    out.dropped = 0;
    out.kept = std::move(all);
    return out;
  }
  for (auto& p : all) {
    if (!p.stolen) out.kept.push_back(std::move(p));
  }
  return out;
}

template <class F>
std::vector<double> column(const std::vector<Pass>& passes, F f) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const auto& p : passes) v.push_back(f(p));
  return v;
}

}  // namespace

void run_ordering_workload(const RunConfig& cfg, bool wide, Report& report,
                           Tracer& tracer, InputBytes* bytes) {
  // Set-up: generate and relabel the inputs, compute the serial reference
  // orderings, and warm each input with one checked distributed call.
  std::vector<double> setup_walls;
  std::vector<OrderingInput> inputs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    inputs = make_inputs(wide, cfg.seed);
    for (const auto& in : inputs) {
      const auto run = drcm::rcm::run_dist_order(kRanks, in.a);
      report.check(run.labels == in.reference,
                   "warm-up run_dist_order(" + in.name + ") != rcm_serial");
    }
    setup_walls.push_back(now_s() - t0);
  }
  for (const auto& in : inputs) {
    bytes->total += csr_bytes(in.a);
    std::printf("input %-14s n=%lld nnz=%lld\n", in.name.c_str(),
                static_cast<long long>(in.a.n()),
                static_cast<long long>(in.a.nnz()));
  }

  bytes->per_op = bytes->total;  // a pass touches every input

  const auto measured = run_passes(inputs, cfg.seconds, report, tracer);
  const auto& passes = measured.kept;
  const std::string ops =
      "passes (" + std::to_string(measured.dropped) + " dropped for host steal)";
  const std::string n = std::to_string(passes.size()) + " " + ops;
  if (!cfg.trace) {
    report_end_to_end(report, setup_walls,
                      column(passes, [](const Pass& p) { return p.wall; }), ops);
    return;
  }

  // Traced run: the ledgers of all passes give the per-layer numbers.
  std::vector<double> traced, plain;
  for (const auto& p : passes) (p.traced ? traced : plain).push_back(p.wall);
  report_trace_overhead(report, traced, plain, ops);
  for (int i = 0; i < 5; ++i) {
    report.metric(kOrderingPhases[i].metric,
                  1e3 * median(column(passes, [i](const Pass& p) { return p.phase[i]; })),
                  "ms", "per pass, max over ranks, median of " + n);
  }
  report.metric("rcm.unattributed_ms",
                1e3 * median(column(passes, [](const Pass& p) { return p.unattributed; })),
                "ms", "per pass, median of " + n);
  report.metric("rcm.barrier_crossings",
                median(column(passes, [](const Pass& p) { return p.crossings; })),
                "count", "per pass");
  report.metric("rcm.words",
                median(column(passes, [](const Pass& p) { return p.words; })),
                "count", "per pass");
  report.metric("solver.cg_iterations", 0.0, "count", "the loop never solves");
  report.metric("service.requests", 0.0, "count", "the loop sends no requests");

  std::vector<const CsrMatrix*> probe_inputs;
  for (const auto& in : inputs) probe_inputs.push_back(&in.a);
  run_layer_probes(probe_inputs, report, tracer);
  run_service_probe(cfg.seed, report, tracer);
}

}  // namespace perfbench
