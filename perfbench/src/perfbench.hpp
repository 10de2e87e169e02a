// Shared declarations of the drcm performance benchmark harness.
//
// The harness measures the library from outside: it times calls into each
// layer's public functions (order, rcm, dist, mpsim, solver, service) and
// reads the mps::SpmdReport ledgers those calls return. Spans are recorded
// here, in the harness, never inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "mpsim/runtime.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

using drcm::index_t;
using drcm::u64;

// ---------------------------------------------------------------------------
// Statistics

/// Linearly interpolated q-quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// (steal, total) jiffies summed over all CPUs since boot, from /proc/stat;
/// zeros when unreadable. Steal is time the hypervisor gave other guests
/// while this VM wanted to run: it inflates every wall time around it, and
/// barrier-bound SPMD loops many times over.
std::pair<double, double> steal_and_total_jiffies();

/// Operations during which steal ticked are dropped from the timing samples
/// (see run_passes and run_stream for how many must remain). The ordering
/// loops keep going past --seconds, up to this factor, to replace them.
inline constexpr double kMaxStretch = 2.0;

/// Seconds since an arbitrary fixed point (steady clock).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Result collection

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / provenance, printed, not in JSON
};

/// Every metric and every output check of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// Records one checked operation; a false `ok` counts as failed and the
  /// first few failures are described on stderr.
  void check(bool ok, const std::string& what);

  const std::vector<Metric>& metrics() const { return metrics_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The end-to-end metrics of an untraced run: setup_s (median set-up) and
/// op_ms_p50 / op_ms_p90 / ops_per_s over the operation walls (seconds);
/// `ops` names the operation in the printed sample counts.
void report_end_to_end(Report& report, const std::vector<double>& setup_walls,
                       const std::vector<double>& op_walls, const std::string& ops);
/// trace.overhead_pct: p50 of the traced operations over the untraced ones.
void report_trace_overhead(Report& report, const std::vector<double>& traced,
                           const std::vector<double>& plain, const std::string& ops);

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, exported as Chrome trace-event JSON

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(now_s()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when tracing is off). `parent` is
  /// the id of the span that caused it; `op` groups the spans of one
  /// operation (a pass or a request).
  int begin(const std::string& name, const std::string& cat, int parent = -1,
            std::int64_t op = -1);
  /// Closes span `id` with optional numeric arguments.
  void end(int id, std::vector<std::pair<std::string, double>> args = {});

  /// Writes every closed span as Chrome trace-event JSON ("X" events);
  /// returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name, cat;
    int parent = -1;
    std::int64_t op = -1;
    double start = 0.0, end = -1.0;
    std::vector<std::pair<std::string, double>> args;
  };
  bool enabled_;
  double epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, const std::string& cat,
             int parent = -1, std::int64_t op = -1)
      : t_(t), id_(t.enabled() ? t.begin(name, cat, parent, op) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) t_.end(id_, std::move(args_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void arg(const std::string& key, double value) {
    if (id_ >= 0) args_.emplace_back(key, value);
  }

 private:
  Tracer& t_;
  int id_;
  std::vector<std::pair<std::string, double>> args_;
};

// ---------------------------------------------------------------------------
// Ledger helpers

/// Max over ranks of one phase's measured wall seconds.
double phase_wall_max(const drcm::mps::SpmdReport& r, drcm::mps::Phase p);
/// Sum over the five ordering phases of the per-phase max-over-ranks wall.
double ordering_wall_max(const drcm::mps::SpmdReport& r);
/// Sum over all phases of the per-phase max-over-ranks wall.
double all_phases_wall_max(const drcm::mps::SpmdReport& r);
/// Max over ranks of the barrier crossings in the five ordering phases.
double ordering_crossings_max(const drcm::mps::SpmdReport& r);
/// Max over ranks of the words moved in the five ordering phases.
double ordering_words_max(const drcm::mps::SpmdReport& r);

/// The five ordering phases, in the paper's Figure 4 order, with the
/// per-layer metric each one feeds.
struct OrderingPhase {
  drcm::mps::Phase phase;
  const char* metric;
};
extern const OrderingPhase kOrderingPhases[5];

/// Bytes of a CSR pattern (plus values when present) — the computed input
/// footprint recorded with the host.
double csr_bytes(const drcm::sparse::CsrMatrix& a);

// ---------------------------------------------------------------------------
// Workloads and probes

struct RunConfig {
  std::string workload;
  u64 seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// Simulated ranks of every distributed call: one per core of a 4-core host.
inline constexpr int kRanks = 4;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

/// Computed CSR bytes of a workload's inputs: all of them, and the most
/// one operation touches (a pass reads every input; a request one matrix).
struct InputBytes {
  double total = 0.0;
  double per_op = 0.0;
};

/// order_deep / order_wide: closed-loop passes of rcm::run_dist_order.
void run_ordering_workload(const RunConfig& cfg, bool wide, Report& report,
                           Tracer& tracer, InputBytes* bytes);
/// service_stream: a fixed-length seeded request stream through
/// service::ReorderingService::submit.
void run_service_workload(const RunConfig& cfg, Report& report, Tracer& tracer,
                          InputBytes* bytes);
/// The service-layer metrics of a short probe stream (same generator as
/// service_stream), for the traced runs of the ordering workloads.
void run_service_probe(u64 seed, Report& report, Tracer& tracer);

/// Per-layer probes on a workload's ordering inputs (adjacency patterns):
/// mpsim collectives and launch, dist kernels at p=1 and p=4, one-shot
/// redistribution, distributed PCG, fingerprinting, and serial RCM against
/// dist_order at p=1 and p=4 (the COST ratios). Every ordering is checked
/// against order::rcm_serial.
void run_layer_probes(const std::vector<const drcm::sparse::CsrMatrix*>& inputs,
                      Report& report, Tracer& tracer);

}  // namespace perfbench
