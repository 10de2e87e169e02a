// perfbench: the drcm performance benchmark harness.
//
//   perfbench --workload {order_deep|order_wide|service_stream} --seed N
//             --seconds S --trace {0|1} [--trace-out FILE]
//
// Prints the host and build record, every metric by name with its unit and
// sample count, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, whose spans go to --trace-out as Chrome trace-event JSON).
// Refuses to run a non-Release build or with DRCM_THREADS /
// DRCM_SPMSPV_ACC set, since either changes the code paths measured.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {order_deep|order_wide|service_stream} "
               "--seed N --seconds S --trace {0|1} [--trace-out FILE]\n",
               argv0);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size in bytes of the highest-level cache of cpu0, 0 when unknown.
double llc_bytes() {
  double best = 0.0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    double v = std::atof(s.c_str());
    if (s.back() == 'K') v *= 1024.0;
    if (s.back() == 'M') v *= 1024.0 * 1024.0;
    best = std::max(best, v);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      cfg.seconds = std::atoi(val);
      have_seconds = true;
    } else if (key == "--trace") {
      cfg.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--trace-out") {
      cfg.trace_out = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds ||
      cfg.seconds < 1) {
    return usage(argv[0]);
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; configure Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  for (const char* var : {"DRCM_THREADS", "DRCM_SPMSPV_ACC"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }

  std::printf("host: nproc=%u cpu=\"%s\" llc=%.1f MiB\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              llc_bytes() / (1024.0 * 1024.0));
  std::printf("build: %s, %s, flags \"%s\"\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  std::printf("config: workload=%s seed=%llu seconds=%d trace=%d ranks=%d scale=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, kRanks,
              cfg.workload == "order_wide" ? "2.0" : "1.0");
  std::fflush(stdout);

  Report report;
  Tracer tracer(cfg.trace);
  InputBytes bytes;
  const bool ordering = cfg.workload == "order_deep" || cfg.workload == "order_wide";
  if (!ordering && cfg.workload != "service_stream") return usage(argv[0]);
  // Recorded so an outlier run can be told from a regression.
  const auto [steal0, total0] = steal_and_total_jiffies();
  try {
    if (ordering) {
      run_ordering_workload(cfg, cfg.workload == "order_wide", report, tracer,
                            &bytes);
    } else {
      run_service_workload(cfg, report, tracer, &bytes);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("uncaught: ") + e.what());
  }
  const auto [steal1, total1] = steal_and_total_jiffies();
  std::printf("host: hypervisor steal %.2f%% of CPU time during the run\n",
              total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0) : 0.0);
  const double llc = llc_bytes();
  const double mib = 1024.0 * 1024.0;
  std::printf("inputs: %.2f MiB computed CSR bytes in all, %.2f MiB per "
              "operation; per-operation inputs fit in the %.1f MiB LLC: %s\n",
              bytes.total / mib, bytes.per_op / mib, llc / mib,
              bytes.per_op <= llc ? "yes" : "no");
  if (cfg.trace && !cfg.trace_out.empty()) {
    if (tracer.write(cfg.trace_out)) {
      std::printf("trace: %s\n", cfg.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.trace_out.c_str());
    }
  }

  for (const auto& m : report.metrics()) {
    std::printf("%-34s %16.6f %-5s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  const char* sep = "";
  for (const auto& m : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(),
                m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
