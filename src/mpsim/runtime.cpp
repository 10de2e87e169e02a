#include "mpsim/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <thread>

#include "mpsim/internal.hpp"

namespace drcm::mps {

PhaseAggregate SpmdReport::aggregate(Phase phase) const {
  PhaseAggregate agg;
  if (ranks.empty()) return agg;
  const auto n = static_cast<double>(ranks.size());
  for (const auto& r : ranks) {
    const PhaseTotals& t = r.phase(phase);
    agg.max.wall_seconds = std::max(agg.max.wall_seconds, t.wall_seconds);
    agg.max.model_compute_seconds =
        std::max(agg.max.model_compute_seconds, t.model_compute_seconds);
    agg.max.model_comm_seconds =
        std::max(agg.max.model_comm_seconds, t.model_comm_seconds);
    agg.max.compute_units = std::max(agg.max.compute_units, t.compute_units);
    agg.max.messages = std::max(agg.max.messages, t.messages);
    agg.max.words = std::max(agg.max.words, t.words);
    agg.max.barrier_crossings =
        std::max(agg.max.barrier_crossings, t.barrier_crossings);
    agg.mean.wall_seconds += t.wall_seconds / n;
    agg.mean.model_compute_seconds += t.model_compute_seconds / n;
    agg.mean.model_comm_seconds += t.model_comm_seconds / n;
    agg.mean.compute_units += t.compute_units / n;
    agg.mean.messages += t.messages;
    agg.mean.words += t.words;
    agg.mean.barrier_crossings += t.barrier_crossings;
  }
  agg.mean.messages /= ranks.size();
  agg.mean.words /= ranks.size();
  agg.mean.barrier_crossings /= ranks.size();
  return agg;
}

double SpmdReport::modeled_makespan() const {
  double total = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    total += aggregate(static_cast<Phase>(p)).max.model_total();
  }
  return total;
}

double SpmdReport::measured_makespan() const {
  double total = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    total += aggregate(static_cast<Phase>(p)).max.wall_seconds;
  }
  return total;
}

std::uint64_t SpmdReport::max_peak_resident() const {
  std::uint64_t peak = 0;
  for (const auto& r : ranks) {
    peak = std::max(peak, r.peak_resident_elements());
  }
  return peak;
}

void SpmdReport::merge_from(const SpmdReport& other) {
  if (ranks.empty()) {
    *this = other;
    return;
  }
  DRCM_CHECK(ranks.size() == other.ranks.size(),
             "cannot merge reports with different rank counts");
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    ranks[r].merge_from(other.ranks[r]);
  }
}

SpmdReport Runtime::run(int nranks, const std::function<void(Comm&)>& body,
                        const MachineParams& machine) {
  RunOptions options;
  options.machine = machine;
  return run(nranks, body, options);
}

SpmdReport Runtime::run(int nranks, const std::function<void(Comm&)>& body,
                        const RunOptions& options) {
  DRCM_CHECK(nranks >= 1, "need at least one rank");
  const MachineParams& machine = options.machine;
  // Decided once per run: spin only when every rank thread can own a core.
  auto registry =
      make_barrier_registry(choose_wait_policy(nranks, usable_cores()));
  auto world_ctx = make_comm_context(nranks, registry);
  const CostModel model(machine);

  std::vector<RankState> states(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto& s = states[static_cast<std::size_t>(r)];
    s.world_rank = r;
    s.faults = options.faults;
  }
  if (options.watchdog_seconds > 0.0) {
    set_watchdog(*registry, options.watchdog_seconds, [&states] {
      std::string out = "last collective entered per rank:\n";
      for (std::size_t r = 0; r < states.size(); ++r) {
        out += "  rank " + std::to_string(r) + ": " +
               describe_collective_tag(
                   states[r].last_entered.load(std::memory_order_relaxed)) +
               "\n";
      }
      return out;
    });
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));

  auto rank_main = [&](int r) {
    // The Comm lives OUTSIDE the try: the poison cascade must run before
    // the communicator (and anything peers might still resolve through it)
    // is torn down.
    Comm comm(world_ctx, r, &states[static_cast<std::size_t>(r)], &model);
    try {
      body(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      // Wake every rank blocked in any collective of any communicator.
      poison_all_barriers(*registry);
    }
  };

  if (nranks == 1) {
    rank_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back(rank_main, r);
    }
    for (auto& t : threads) t.join();
  }

  // Prefer the root cause over secondary PoisonedError victims.
  std::exception_ptr first_real;
  std::exception_ptr first_any;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!first_any) first_any = e;
    if (!first_real) {
      try {
        std::rethrow_exception(e);
      } catch (const PoisonedError&) {
        // secondary victim; keep looking
      } catch (...) {
        first_real = e;
      }
    }
  }
  if (first_real || first_any) {
    if (options.report_on_error) {
      options.report_on_error->machine = machine;
      options.report_on_error->ranks.clear();
      options.report_on_error->ranks.reserve(states.size());
      for (const auto& s : states) {
        options.report_on_error->ranks.push_back(s.stats);
      }
    }
    std::rethrow_exception(first_real ? first_real : first_any);
  }

  SpmdReport report;
  report.machine = machine;
  report.ranks.reserve(states.size());
  for (const auto& s : states) report.ranks.push_back(s.stats);
  return report;
}

}  // namespace drcm::mps
