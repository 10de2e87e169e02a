// Trace-driven projection of the distributed RCM cost to paper-scale
// machines (the engine behind Figures 4, 5 and 6).
//
// The thread-backed runtime executes faithfully at laptop-scale rank
// counts; the paper's evaluation runs at 1-4096 Edison cores. Its own
// analysis (Sec. IV-B) models that regime with alpha-beta terms driven by
// per-iteration frontier quantities:
//
//   T_SpMSpV   = O(m/p + beta(m/p + n/sqrt(p)) + iters*alpha*sqrt(p))
//   T_SortPerm = O(n log n / p + beta n/p + iters*alpha*p)
//
// We reproduce exactly that methodology, but exactly rather than
// asymptotically: ExecutionTrace::collect records, per BFS level of the
// actual algorithm execution (every sweep of every component, split the way
// the speculative George-Liu search runs them), the frontier size, the
// expansion volume (sum of frontier degrees = SpMSpV work) and the
// next-frontier size. project_cost then
// evaluates the per-collective formulas of mps::CostModel for any virtual
// (cores, threads-per-process) configuration: a 2D sqrt(P) x sqrt(P) grid
// of P = cores/threads processes, local kernels multithreaded (the paper's
// hybrid OpenMP-MPI setup, one communicating thread per process).
//
// The i.i.d. load-balance assumption of the paper's analysis (justified by
// the random permutation of Sec. IV-A) is applied: per-process shares are
// global quantities divided by P.
#pragma once

#include <vector>

#include "mpsim/cost_model.hpp"
#include "sparse/csr.hpp"

namespace drcm::rcm {

/// Quantities of one BFS level of the real execution.
struct LevelTrace {
  index_t frontier = 0;   ///< nnz(Lcur)
  index_t expansion = 0;  ///< sum of degrees over Lcur (SpMSpV work)
  index_t next = 0;       ///< nnz(Lnext) after SELECT
};

/// Everything project_cost needs, recorded from one sequential execution.
struct ExecutionTrace {
  index_t n = 0;
  nnz_t nnz = 0;
  int components = 0;
  int peripheral_sweeps = 0;
  /// George-Liu candidate selections (one REDUCE argmin each in the
  /// distributed run; the loop may select once more than it sweeps).
  int peripheral_argmin_rounds = 0;
  index_t pseudo_diameter = 0;  ///< eccentricity of the chosen start vertex
  /// Plain BFS sweeps: the first sweep of every component (2 crossings per
  /// level, plus 1 for the empty call that ends each BFS).
  std::vector<LevelTrace> peripheral_levels;
  /// The CM labeling from each component's root (3 crossings per level, 2
  /// on the terminal one): its last speculative sweep, or a separate pass
  /// when the search stopped after its first sweep.
  std::vector<LevelTrace> ordering_levels;
  /// Speculative CM sweeps the search moved past and reset, priced like
  /// ordering levels.
  std::vector<LevelTrace> discarded_levels;

  /// Instruments the exact algorithm control flow (component seeding,
  /// speculative George-Liu iteration, ordering pass) on the adjacency
  /// pattern `a`.
  static ExecutionTrace collect(const sparse::CsrMatrix& a);
};

/// Modeled compute/communication seconds of one Figure-4 component, plus
/// the predicted barrier-crossing count — the synchrony ledger the mpsim
/// runtime records per phase, reproduced analytically so a real run's
/// ledger can be asserted against the model (crossings are counted even at
/// P = 1: the runtime crosses its single-rank barriers all the same).
struct PhaseTime {
  double compute = 0.0;
  double comm = 0.0;
  std::uint64_t crossings = 0;
  double total() const { return compute + comm; }
  PhaseTime& operator+=(const PhaseTime& o) {
    compute += o.compute;
    comm += o.comm;
    crossings += o.crossings;
    return *this;
  }
};

/// The five stacked components of the paper's Figure 4, with the
/// compute/comm split of Figure 5 preserved inside each.
struct CostBreakdown {
  PhaseTime peripheral_spmspv;
  PhaseTime peripheral_other;
  PhaseTime ordering_spmspv;
  PhaseTime ordering_sort;
  PhaseTime ordering_other;

  PhaseTime spmspv() const {  // Figure 5's series
    PhaseTime t = peripheral_spmspv;
    t += ordering_spmspv;
    return t;
  }
  /// Predicted barrier crossings of the Peripheral:* / Ordering:* phases —
  /// the quantities test_mpsim_cost_model.cpp pins against a real run's
  /// mpsim ledger.
  std::uint64_t peripheral_crossings() const {
    return peripheral_spmspv.crossings + peripheral_other.crossings;
  }
  std::uint64_t ordering_crossings() const {
    return ordering_spmspv.crossings + ordering_sort.crossings +
           ordering_other.crossings;
  }
  double total() const {
    return peripheral_spmspv.total() + peripheral_other.total() +
           ordering_spmspv.total() + ordering_sort.total() +
           ordering_other.total();
  }
};

/// Projects the trace onto `cores` total cores with `threads_per_process`
/// OpenMP threads per MPI process (paper default: 6; flat MPI: 1).
///
/// The hybrid pricing — compute divided by ALL cores, communication priced
/// per process with one communicating thread each, crossings independent of
/// the thread count — lives here only: the executed runtime runs one thread
/// per rank, so project_cost(trace, P, 1) matches a P-rank run's ledger and
/// project_cost(trace, P * t, t) differs from it only by compute / t
/// (asserted in test_mpsim_cost_model.cpp / test_model_runtime_consistency).
CostBreakdown project_cost(const ExecutionTrace& trace, int cores,
                           int threads_per_process,
                           const mps::MachineParams& machine = {});

}  // namespace drcm::rcm
