// The alpha-beta-gamma machine model used for modeled (paper-scale) timings.
//
// The paper (Sec. IV-B) analyzes its algorithm in exactly these terms: an
// algorithm that performs F scalar operations, sends S messages and moves W
// words takes T = F*gamma + alpha*S + beta*W. The thread-backed runtime
// charges every collective through this model so that a run at any rank
// count yields both measured wall time and modeled Cray-XC30-like time; the
// TraceModel (rcm/trace_model.hpp) reuses the same formulas for virtual
// processor counts up to the paper's 4096 cores.
//
// Collective cost formulas (q = communicator size, words = 8-byte units):
//   barrier       : ceil(log2 q) messages on the critical path
//   allreduce     : two trees,       2*ceil(log2 q) * (alpha + beta*w)
//   allgatherv    : personalized,    (q-1)*alpha + beta*W_total
//   alltoallv     : personalized,    (q-1)*alpha + beta*max(W_send, W_recv)
//   exscan        : tree,            ceil(log2 q) * (alpha + beta*w)
//
// The linear (q-1)*alpha terms for allgatherv/alltoallv match the paper's
// own analysis (T_SpMSpV has an |iters|*alpha*sqrt(p) term and T_SortPerm an
// |iters|*alpha*p term). Default constants are calibrated against the
// paper's single-core numbers; see EXPERIMENTS.md ("Model calibration").
#pragma once

#include <cstdint>

#include "common/check.hpp"

namespace drcm::mps {

/// Machine constants for the alpha-beta-gamma model (seconds).
struct MachineParams {
  /// Per-message latency. Cray Aries MPI latency plus collective software
  /// overhead; calibrated so high-concurrency latency terms match Fig. 4.
  double alpha = 2.5e-6;
  /// Per 8-byte-word transfer time (~9 GB/s effective per process).
  double beta = 9.0e-10;
  /// Per scalar work unit (one CSR edge visit / comparison at graph-kernel
  /// cache behaviour); calibrated against the paper's 1-thread runtimes.
  double gamma = 1.8e-8;
  /// Cores per node on the modeled machine (Edison: 24).
  int cores_per_node = 24;
};

/// Cost of one communication operation, per rank on the critical path.
struct CommCost {
  double seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;

  CommCost& operator+=(const CommCost& o) {
    seconds += o.seconds;
    messages += o.messages;
    words += o.words;
    return *this;
  }
};

/// Evaluates the per-collective cost formulas above.
class CostModel {
 public:
  explicit CostModel(const MachineParams& params = {}) : p_(params) {}

  CommCost barrier(int q) const;
  CommCost allreduce(int q, std::uint64_t words) const;
  /// `total_words`: sum of contributions over all ranks (what each rank ends
  /// up holding).
  CommCost allgatherv(int q, std::uint64_t total_words) const;
  /// `send_words` / `recv_words`: totals for the calling rank.
  CommCost alltoallv(int q, std::uint64_t send_words,
                     std::uint64_t recv_words) const;
  CommCost exscan(int q, std::uint64_t words) const;

  /// Modeled seconds for `units` scalar work units on one thread.
  double compute_seconds(double units) const { return units * p_.gamma; }

  const MachineParams& params() const { return p_; }

 private:
  static int ceil_log2(int q);
  const MachineParams p_;
};

}  // namespace drcm::mps
