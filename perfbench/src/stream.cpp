// service_stream: a fixed-length seeded request stream through
// service::ReorderingService::submit (4 ranks, default options), closed
// loop with one caller.
//
// Kinds, in a seeded shuffle with exact counts:
//   60% hits    — exact repeats from a base pool of seven patterns (six
//                 relabeled shells and a two-component grid), cycled in
//                 seeded rounds so every pool entry is reused often;
//   20% repairs — two-edge additions inside the small component of the
//                 two-component base, every one a distinct pattern;
//   20% cold    — never-seen relabeled shells.
// The pool is submitted once during set-up, so the measured stream starts
// with a warm cache. Repairs and cold requests insert a new pattern each,
// so the default 64-entry cache evicts beside the hits.
//
// Checks: every response is kOk with CG converged; a cold or repaired
// response's permuted bandwidth equals serial RCM's; every hit reproduces
// its pattern's first (set-up) solution bit for bit.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>

#include "common/rng.hpp"
#include "order/rcm_serial.hpp"
#include "perfbench.hpp"
#include "service/service.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"
#include "sparse/pattern_delta.hpp"

namespace perfbench {

namespace {

namespace gen = drcm::sparse::gen;
namespace svc = drcm::service;
using drcm::sparse::CsrMatrix;

/// Requests per second of --seconds: sizes the stream to about that long
/// on a 4-core host while keeping its length independent of timing.
constexpr int kRequestsPerSecond = 60;
/// Length of the probe stream the ordering workloads' traced runs execute.
constexpr int kProbeRequests = 60;

enum Kind { kHit = 0, kRepair = 1, kCold = 2 };
const char* const kKindName[3] = {"hit", "repair", "cold"};

u64 derive(u64 seed, u64 salt) {
  return drcm::splitmix64(seed ^ drcm::splitmix64(salt));
}

std::vector<double> rhs_for(index_t n) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    b[static_cast<std::size_t>(v)] =
        1.0 + 0.5 * static_cast<double>((v * 2654435761u) % 1000) / 1000.0;
  }
  return b;
}

struct Pattern {
  CsrMatrix matrix;      ///< SPD request matrix (Laplacian values)
  std::vector<double> b;
  index_t serial_bandwidth = 0;  ///< bandwidth under order::rcm_serial
};

Pattern make_pattern(const CsrMatrix& adjacency) {
  Pattern p;
  p.matrix = gen::with_laplacian_values(adjacency, 0.02);
  p.b = rhs_for(adjacency.n());
  p.serial_bandwidth = drcm::sparse::bandwidth_with_labels(
      adjacency, drcm::order::rcm_serial(adjacency));
  return p;
}

struct Stream {
  std::vector<CsrMatrix> pool_adjacency;
  std::vector<Pattern> pool;   ///< hit targets; pool.back() is two-component
  std::vector<Pattern> fresh;  ///< one per repair / cold request
  struct Req {
    Kind kind;
    std::size_t index;  ///< into pool (hits) or fresh (others)
  };
  std::vector<Req> reqs;
};

Stream make_stream(u64 seed, int length) {
  Stream s;
  for (int i = 0; i < 6; ++i) {
    s.pool_adjacency.push_back(gen::relabel_random(
        gen::grid3d(5, 5, 60 + 10 * i, gen::Stencil3d::k27), derive(seed, 0x100 + i)));
  }
  // n = 1280 puts the fingerprint row windows at 80 rows: the small
  // component fills window 15 alone, so its deltas leave the big one
  // untouched and every delta repairs.
  const auto big = gen::grid2d(30, 40);
  const auto two = gen::disjoint_union({big, gen::grid2d(8, 10)});
  s.pool_adjacency.push_back(two);
  for (const auto& a : s.pool_adjacency) s.pool.push_back(make_pattern(a));

  const int hits = length * 3 / 5;
  const int repairs = length / 5;
  std::vector<Kind> kinds(static_cast<std::size_t>(length), kCold);
  for (int i = 0; i < hits + repairs; ++i) {
    kinds[static_cast<std::size_t>(i)] = i < hits ? kHit : kRepair;
  }
  drcm::Rng rng(derive(seed, 0x200));
  rng.shuffle(kinds.begin(), kinds.end());

  std::unordered_set<u64> seen;
  for (const auto& p : s.pool) {
    seen.insert(svc::fingerprint_pattern_serial(p.matrix).fp.hash);
  }
  std::vector<std::size_t> order;
  u64 salt = 0x10000;
  index_t cold_count = 0;
  for (const Kind k : kinds) {
    if (k == kHit) {
      if (order.empty()) {
        for (std::size_t i = 0; i < s.pool.size(); ++i) order.push_back(i);
        rng.shuffle(order.begin(), order.end());
      }
      s.reqs.push_back({kHit, order.back()});
      order.pop_back();
      continue;
    }
    // A new pattern; redraw on the (rare) repeat of an earlier one. Cold
    // shells cycle through lengths 40..79, so every seed sends the same mix
    // of sizes.
    const index_t cold_len = k == kCold ? 40 + (cold_count++ * 7) % 40 : 0;
    while (true) {
      const u64 r = derive(seed, ++salt);
      CsrMatrix adj =
          k == kRepair
              ? drcm::sparse::apply_pattern_delta(
                    two, drcm::sparse::random_pattern_delta(two, 2, 0, r, big.n(),
                                                            two.n()))
              : gen::relabel_random(
                    gen::grid3d(5, 5, cold_len, gen::Stencil3d::k27), r);
      Pattern p = make_pattern(adj);
      if (!seen.insert(svc::fingerprint_pattern_serial(p.matrix).fp.hash).second) {
        continue;
      }
      s.fresh.push_back(std::move(p));
      break;
    }
    s.reqs.push_back({k, s.fresh.size() - 1});
  }
  return s;
}

/// One request's measurements (walls in seconds, ledger values).
struct Sample {
  Kind kind = kCold;       ///< as served: hit, repair, or cold
  bool traced = false;
  bool stolen = false;     ///< host steal ticked during the request
  double wall = 0.0;
  double crossings = 0.0;  ///< ordering-phase barrier crossings
  double hit_overhead = 0.0;  ///< hits: wall minus redistribute + solver
  double phase[5] = {0, 0, 0, 0, 0};  ///< cold: ordering phase walls
  double unattributed = 0.0;  ///< cold: wall minus all phase walls
  double words = 0.0;         ///< cold: ordering-phase words
};

/// Everything measured over one executed stream.
struct StreamResult {
  std::vector<Sample> samples;
  /// Timing samples skip steal-interrupted requests, unless those are the
  /// majority (the stream cannot be extended without changing its mix);
  /// counts always cover every request.
  bool clean_only = true;
  std::size_t dropped = 0;
  double cg_iterations = 0.0;
  double tail_reallocations = 0.0;
  double evictions = 0.0;

  /// `field` of the samples `keep` accepts (timing: minus dropped ones).
  template <class Keep, class Field>
  std::vector<double> timed(Keep keep, Field field) const {
    std::vector<double> v;
    for (const auto& s : samples) {
      if (keep(s) && !(clean_only && s.stolen)) v.push_back(field(s));
    }
    return v;
  }
  std::size_t count(Kind k) const {
    std::size_t c = 0;
    for (const auto& s : samples) c += s.kind == k;
    return c;
  }
  std::vector<double> crossings_of(Kind k) const {
    std::vector<double> v;
    for (const auto& s : samples) {
      if (s.kind == k) v.push_back(s.crossings);
    }
    return v;
  }
};

struct Served {
  std::unique_ptr<svc::ReorderingService> service;
  std::vector<std::vector<double>> first_x;  ///< per pool pattern
};

/// Builds a service and submits every pool pattern once (cold, checked).
Served warm_service(const Stream& s, Report& report) {
  Served out;
  out.service = std::make_unique<svc::ReorderingService>(svc::ServiceOptions{});
  for (const auto& p : s.pool) {
    svc::OrderSolveRequest rq;
    rq.matrix = &p.matrix;
    rq.b = p.b;
    auto resp = out.service->submit(rq);
    report.check(resp.status == svc::RequestStatus::kOk && resp.cg.converged &&
                     resp.permuted_bandwidth == p.serial_bandwidth,
                 "warm-up request failed or bandwidth differs from serial RCM");
    out.first_x.push_back(std::move(resp.x));
  }
  return out;
}

/// Submits the stream in order. With tracing on, every other request is
/// traced, so traced and untraced requests share one time window.
StreamResult run_stream(const Stream& s, Served& served, Report& report,
                        Tracer& tracer) {
  Tracer off(false);
  StreamResult res;
  auto& service = *served.service;
  const std::size_t size_before = service.cache_size();
  std::size_t inserts = 0;
  for (std::size_t i = 0; i < s.reqs.size(); ++i) {
    const auto& rq_spec = s.reqs[i];
    const Pattern& p =
        rq_spec.kind == kHit ? s.pool[rq_spec.index] : s.fresh[rq_spec.index];
    svc::OrderSolveRequest rq;
    rq.matrix = &p.matrix;
    rq.b = p.b;
    Sample smp;
    smp.traced = tracer.enabled() && i % 2 == 0;
    ScopedSpan span(smp.traced ? tracer : off, "service::submit", "service", -1,
                    static_cast<std::int64_t>(i));
    const double steal0 = steal_and_total_jiffies().first;
    const double t0 = now_s();
    const auto resp = service.submit(rq);
    smp.wall = now_s() - t0;
    smp.stolen = steal_and_total_jiffies().first > steal0;
    smp.kind = resp.cache_hit ? kHit : resp.repair_hit ? kRepair : kCold;
    smp.crossings = static_cast<double>(resp.ordering_crossings);
    span.arg("kind", static_cast<double>(smp.kind));
    span.arg("ordering_crossings", smp.crossings);
    span.arg("cg_iterations", resp.cg.iterations);

    const std::string what = "request " + std::to_string(i) + " (" +
                             kKindName[rq_spec.kind] + ")";
    bool ok = resp.status == svc::RequestStatus::kOk && resp.cg.converged;
    if (smp.kind == kHit) {
      // Only pool patterns repeat, so only they may hit.
      ok = ok && rq_spec.kind == kHit;
      if (ok) {
        const auto& ref = served.first_x[rq_spec.index];
        ok = resp.x.size() == ref.size() &&
             std::memcmp(resp.x.data(), ref.data(), ref.size() * sizeof(double)) == 0;
      }
    } else {
      ok = ok && resp.permuted_bandwidth == p.serial_bandwidth;
      ++inserts;
    }
    report.check(ok, what);

    res.cg_iterations += resp.cg.iterations;
    if (2 * i >= s.reqs.size()) {
      res.tail_reallocations += static_cast<double>(resp.workspace_reallocations);
    }
    const auto& led = resp.report;
    if (smp.kind == kHit) {
      smp.hit_overhead = smp.wall -
                         phase_wall_max(led, drcm::mps::Phase::kRedistribute) -
                         phase_wall_max(led, drcm::mps::Phase::kSolver);
    } else if (smp.kind == kCold) {
      for (int ph = 0; ph < 5; ++ph) {
        smp.phase[ph] = phase_wall_max(led, kOrderingPhases[ph].phase);
      }
      smp.unattributed = smp.wall - all_phases_wall_max(led);
      smp.words = ordering_words_max(led);
    }
    res.dropped += smp.stolen;
    res.samples.push_back(smp);
  }
  if (2 * res.dropped > res.samples.size()) {
    res.clean_only = false;
    res.dropped = 0;
  }
  res.evictions = static_cast<double>(size_before + inserts) -
                  static_cast<double>(service.cache_size());
  return res;
}

auto is(Kind k) {
  return [k](const Sample& s) { return s.kind == k; };
}
constexpr auto any = [](const Sample&) { return true; };
constexpr auto wall = [](const Sample& s) { return s.wall; };

std::string timed_count(const StreamResult& r, Kind k) {
  return std::to_string(r.timed(is(k), wall).size());
}

/// The service-layer per-layer metrics of one executed stream.
void report_service_layer(const StreamResult& r, const std::string& src,
                          Report& report) {
  const auto n = static_cast<double>(r.samples.size());
  auto timed = [&](Kind k, const char* what) {
    return std::to_string(r.timed(is(k), wall).size()) + " " + what + ", " + src;
  };
  report.metric("service.hit_rate", static_cast<double>(r.count(kHit)) / n, "ratio",
                src);
  report.metric("service.repair_rate", static_cast<double>(r.count(kRepair)) / n,
                "ratio", src);
  report.metric("service.evictions", r.evictions, "count", src);
  report.metric("service.ordering_crossings_cold", median(r.crossings_of(kCold)),
                "count", "median over cold, " + src);
  report.metric("service.ordering_crossings_repair", median(r.crossings_of(kRepair)),
                "count", "median over repairs, " + src);
  report.metric("service.tail_reallocations", r.tail_reallocations, "count",
                "second half, " + src);
  report.metric("service.hit_ms_p50", 1e3 * median(r.timed(is(kHit), wall)), "ms",
                timed(kHit, "hits"));
  report.metric("service.repair_ms_p50", 1e3 * median(r.timed(is(kRepair), wall)),
                "ms", timed(kRepair, "repairs"));
  report.metric("service.cold_ms_p50", 1e3 * median(r.timed(is(kCold), wall)), "ms",
                timed(kCold, "cold"));
  report.metric("service.hit_overhead_ms",
                1e3 * median(r.timed(is(kHit),
                                     [](const Sample& s) { return s.hit_overhead; })),
                "ms", timed(kHit, "hits"));
}

}  // namespace

void run_service_workload(const RunConfig& cfg, Report& report, Tracer& tracer,
                          InputBytes* bytes) {
  const int length = kRequestsPerSecond * cfg.seconds;
  std::vector<double> setup_walls;
  Stream stream;
  Served served;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stream = Stream{};  // release the previous set-up's patterns first
    const double t0 = now_s();
    stream = make_stream(cfg.seed, length);
    served = warm_service(stream, report);
    setup_walls.push_back(now_s() - t0);
  }
  for (const auto* set : {&stream.pool, &stream.fresh}) {
    for (const auto& p : *set) {
      bytes->total += csr_bytes(p.matrix);
      bytes->per_op = std::max(bytes->per_op, csr_bytes(p.matrix));
    }
  }
  std::printf("stream: %d requests, %zu pool patterns, %zu new patterns\n",
              length, stream.pool.size(), stream.fresh.size());

  const auto r = run_stream(stream, served, report, tracer);
  const std::string ops =
      "requests (" + std::to_string(r.dropped) + " dropped for host steal)";
  if (!cfg.trace) {
    report_end_to_end(report, setup_walls, r.timed(any, wall), ops);
    return;
  }

  // Traced run: the stream's responses give the per-layer numbers.
  report_trace_overhead(report,
                        r.timed([](const Sample& s) { return s.traced; }, wall),
                        r.timed([](const Sample& s) { return !s.traced; }, wall), ops);
  const std::string cold = "per cold request, median of " + timed_count(r, kCold) +
                           ", max over ranks";
  for (int i = 0; i < 5; ++i) {
    report.metric(kOrderingPhases[i].metric,
                  1e3 * median(r.timed(is(kCold),
                                       [i](const Sample& s) { return s.phase[i]; })),
                  "ms", cold);
  }
  report.metric("rcm.unattributed_ms",
                1e3 * median(r.timed(is(kCold),
                                     [](const Sample& s) { return s.unattributed; })),
                "ms", cold);
  report.metric("rcm.barrier_crossings", median(r.crossings_of(kCold)), "count",
                "per cold request, median over all cold");
  report.metric("rcm.words",
                median(r.timed(is(kCold), [](const Sample& s) { return s.words; })),
                "count", cold);
  const auto n = static_cast<double>(r.samples.size());
  report.metric("solver.cg_iterations", r.cg_iterations / n, "count",
                "mean per request");
  report.metric("service.requests", n, "count", "measured stream");
  report_service_layer(r, "measured stream", report);

  std::vector<const CsrMatrix*> probe_inputs;
  for (const auto& a : stream.pool_adjacency) probe_inputs.push_back(&a);
  run_layer_probes(probe_inputs, report, tracer);
}

void run_service_probe(u64 seed, Report& report, Tracer& tracer) {
  ScopedSpan span(tracer, "probe service stream", "probe");
  const Stream stream = make_stream(seed, kProbeRequests);
  Served served = warm_service(stream, report);
  const auto r = run_stream(stream, served, report, tracer);
  report_service_layer(r, std::to_string(kProbeRequests) + "-request probe stream",
                       report);
}

}  // namespace perfbench
