// SPMD launcher: runs a function body on `nranks` simulated ranks.
//
// Equivalent to `mpiexec -n nranks`: each rank executes the same body with
// its own Comm (MPI_COMM_WORLD). Rank bodies communicate only through Comm
// collectives. If any rank throws, the runtime poisons every communicator so
// the remaining ranks abort out of their collectives, then rethrows the
// original exception on the caller's thread.
//
// The returned SpmdReport carries each rank's per-phase measured and modeled
// costs plus helpers implementing the aggregation rule for bulk-synchronous
// execution (per phase, the slowest rank sets the pace).
#pragma once

#include <functional>
#include <vector>

#include "mpsim/comm.hpp"
#include "mpsim/cost_model.hpp"
#include "mpsim/stats.hpp"

namespace drcm::mps {

/// Result of one SPMD run: per-rank recorders plus aggregation helpers.
struct SpmdReport {
  std::vector<StatsRecorder> ranks;
  MachineParams machine;

  /// Max/mean across ranks for one phase.
  PhaseAggregate aggregate(Phase phase) const;
  /// Sum over phases of the per-phase max across ranks: the modeled
  /// makespan of a bulk-synchronous run.
  double modeled_makespan() const;
  /// Same, measured wall clock (meaningful only when ranks do not
  /// oversubscribe physical cores).
  double measured_makespan() const;
  /// Largest resident-memory ledger peak across ranks (scalar elements):
  /// the quantity the fully distributed pipeline bounds by O(nnz/p + n).
  std::uint64_t max_peak_resident() const;

  /// Folds another run's per-rank ledgers into this report (rank-wise;
  /// the reports must have the same rank count, or this one must still be
  /// empty). The recoverable driver uses this so the cost of abandoned
  /// attempts — including injected stalls and retry backoff — stays on
  /// the final bill instead of vanishing with the failed run.
  void merge_from(const SpmdReport& other);
};

/// Extended launch configuration for fault-tolerance work.
struct RunOptions {
  MachineParams machine{};
  /// Scripted faults injected at each rank's collective-entry hook; may be
  /// null. Actions are one-shot (transient-fault semantics) — see fault.hpp.
  FaultPlan* faults = nullptr;
  /// Barrier watchdog budget in wall-clock seconds; 0 disables. A barrier
  /// left incomplete this long poisons the run and throws
  /// WatchdogTimeoutError naming each rank's last-entered collective, so a
  /// stalled rank becomes a bounded-time diagnostic instead of a hang.
  double watchdog_seconds = 0.0;
  /// When a rank throws, the runtime rethrows on the caller's thread and
  /// the run's SpmdReport is never returned. If non-null, the partial
  /// per-rank ledgers are copied here before the rethrow so a recoverable
  /// driver can still charge the abandoned attempt's cost.
  SpmdReport* report_on_error = nullptr;
};

class Runtime {
 public:
  /// Runs `body` on `nranks` ranks, one thread each, and returns the cost
  /// report. Barrier waiters spin briefly before sleeping only when the
  /// `nranks` rank threads fit the usable cores (mpsim/barrier.hpp). The
  /// paper's hybrid MPI+OpenMP configuration is priced by the trace model
  /// (rcm::project_cost), not executed.
  static SpmdReport run(int nranks, const std::function<void(Comm&)>& body,
                        const MachineParams& machine = {});

  /// Same, with fault injection and the barrier watchdog.
  static SpmdReport run(int nranks, const std::function<void(Comm&)>& body,
                        const RunOptions& options);
};

}  // namespace drcm::mps
