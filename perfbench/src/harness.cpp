// Statistics, result collection, span export and ledger helpers.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench.hpp"

namespace perfbench {

namespace mps = drcm::mps;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::pair<double, double> steal_and_total_jiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double field[8] = {};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &field[0],
                              &field[1], &field[2], &field[3], &field[4], &field[5],
                              &field[6], &field[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const double v : field) total += v;
  return {field[7], total};
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void report_end_to_end(Report& report, const std::vector<double>& setup_walls,
                       const std::vector<double>& op_walls, const std::string& ops) {
  double total = 0.0;
  for (const double w : op_walls) total += w;
  const std::string n = std::to_string(op_walls.size()) + " " + ops;
  report.metric("setup_s", median(setup_walls), "s",
                std::to_string(setup_walls.size()) + " set-ups");
  report.metric("op_ms_p50", 1e3 * quantile(op_walls, 0.5), "ms", n);
  report.metric("op_ms_p90", 1e3 * quantile(op_walls, 0.9), "ms", n);
  report.metric("ops_per_s", static_cast<double>(op_walls.size()) / total, "1/s", n);
}

void report_trace_overhead(Report& report, const std::vector<double>& traced,
                           const std::vector<double>& plain, const std::string& ops) {
  report.metric("trace.overhead_pct", 100.0 * (median(traced) / median(plain) - 1.0),
                "%", std::to_string(traced.size()) + " traced vs " +
                         std::to_string(plain.size()) + " untraced " + ops);
}

int Tracer::begin(const std::string& name, const std::string& cat, int parent,
                  std::int64_t op) {
  Span s;
  s.name = name;
  s.cat = cat;
  s.parent = parent;
  s.op = op;
  s.start = now_s() - epoch_;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id, std::vector<std::pair<std::string, double>> args) {
  auto& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_s() - epoch_;
  s.args = std::move(args);
}

namespace {

void write_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end < 0.0) continue;
    std::fprintf(f, "%s{\"name\": ", first ? "" : ",\n");
    first = false;
    write_json_string(f, s.name);
    std::fprintf(f, ", \"cat\": ");
    write_json_string(f, s.cat);
    std::fprintf(f,
                 ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %d, "
                 "\"op\": %lld",
                 s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 static_cast<long long>(s.op));
    for (const auto& [k, v] : s.args) {
      std::fprintf(f, ", ");
      write_json_string(f, k);
      std::fprintf(f, ": %.17g", v);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

const OrderingPhase kOrderingPhases[5] = {
    {mps::Phase::kPeripheralSpmspv, "rcm.peripheral_spmspv_ms"},
    {mps::Phase::kPeripheralOther, "rcm.peripheral_other_ms"},
    {mps::Phase::kOrderingSpmspv, "rcm.ordering_spmspv_ms"},
    {mps::Phase::kOrderingSort, "rcm.ordering_sort_ms"},
    {mps::Phase::kOrderingOther, "rcm.ordering_other_ms"},
};

double phase_wall_max(const mps::SpmdReport& r, mps::Phase p) {
  return r.aggregate(p).max.wall_seconds;
}

double ordering_wall_max(const mps::SpmdReport& r) {
  double s = 0.0;
  for (const auto& ph : kOrderingPhases) s += phase_wall_max(r, ph.phase);
  return s;
}

double all_phases_wall_max(const mps::SpmdReport& r) {
  double s = 0.0;
  for (int p = 0; p < mps::kNumPhases; ++p) {
    s += phase_wall_max(r, static_cast<mps::Phase>(p));
  }
  return s;
}

double ordering_crossings_max(const mps::SpmdReport& r) {
  std::uint64_t m = 0;
  for (const auto& rank : r.ranks) m = std::max(m, mps::ordering_crossings(rank));
  return static_cast<double>(m);
}

double ordering_words_max(const mps::SpmdReport& r) {
  std::uint64_t m = 0;
  for (const auto& rank : r.ranks) {
    std::uint64_t w = 0;
    for (const auto& ph : kOrderingPhases) w += rank.phase(ph.phase).words;
    m = std::max(m, w);
  }
  return static_cast<double>(m);
}

double csr_bytes(const drcm::sparse::CsrMatrix& a) {
  const double n = static_cast<double>(a.n());
  const double nnz = static_cast<double>(a.nnz());
  return (n + 1.0) * sizeof(drcm::nnz_t) + nnz * sizeof(index_t) +
         (a.has_values() ? nnz * sizeof(double) : 0.0);
}

}  // namespace perfbench
