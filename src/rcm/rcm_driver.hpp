// The complete distributed RCM pipeline: the library's primary public API.
//
// Composition (paper Secs. III-IV):
//   1. optional load-balancing random symmetric permutation of the input
//      (paper Sec. IV-A: "we randomly permute the input matrix A before
//      running the RCM algorithm");
//   2. 2D decomposition of the matrix onto the caller's process grid;
//   3. per component: seed (unvisited min-degree vertex) -> distributed
//      pseudo-peripheral search (Algorithm 4) -> distributed CM labeling
//      (Algorithm 3). Under George-Liu the two phases fuse: the search's
//      candidate sweeps are speculative CM labelings, and the last one IS
//      the component's ordering (rcm/dist_peripheral.hpp), so no separate
//      ordering pass runs unless the search stops after its first sweep;
//   4. reversal of the full labeling ("return R in reverse order");
//   5. composition back through the load-balancing permutation, so callers
//      always receive labels of the ORIGINAL matrix.
//
// Labels leave the ordering in one form: the replicated vector dist_order
// returns. The pipeline (ordered_solve) redistributes under it once, as
// the paper permutes the matrix in place with the labels computed on the
// 2D grid.
//
// Determinism: for fixed options the result is bit-identical to
// order::rcm_serial on every grid size; with load balancing enabled it is
// bit-identical to rcm_serial applied to the relabeled matrix, mapped back.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpsim/runtime.hpp"
#include "rcm/dist_rcm.hpp"
#include "rcm/ordering.hpp"
#include "solver/cg.hpp"
#include "solver/dist_cg.hpp"
#include "sparse/csr.hpp"

namespace drcm::rcm {

struct DistRcmOptions {
  /// Which ordering algorithm to run, and with which pseudo-peripheral
  /// iteration (rcm/ordering.hpp). dist_order dispatches on this. kAuto
  /// resolves deterministically from per-matrix proxies before any
  /// collective launches.
  OrderingSpec ordering{};
  /// Apply the load-balancing random relabeling before decomposing.
  bool load_balance = false;
  /// Seed of the load-balancing permutation.
  u64 seed = 0x5eed;
};

struct DistRcmStats {
  int components = 0;
  /// Pseudo-peripheral search sweeps, plain and speculative alike.
  int peripheral_bfs_sweeps = 0;
  /// Speculative (CM-labeling) sweeps the George-Liu search moved past and
  /// reset; every other speculative sweep became its component's ordering.
  int discarded_sweeps = 0;
  /// Total BFS levels labeled over all components (kRcm/kSloan arms; one
  /// fused level step each, 3 crossings, 2 on a component's terminal
  /// level) — the figure the bi-criteria
  /// peripheral mode shrinks. 0 on the replicated kGps arm.
  index_t ordering_levels = 0;
  /// The algorithm that actually ran (kAuto resolved; never kAuto here).
  OrderingAlgorithm algorithm = OrderingAlgorithm::kRcm;
};

/// The memoized shape of one component's ordering run — what incremental
/// repair needs to resume the BFS mid-flight instead of recomputing.
/// All fields are in the WORK numbering and CM (pre-reversal) label space:
/// callers holding the reversed RCM labels recover cm(v) = n - 1 - rcm(v).
struct ComponentRecipe {
  /// The component walk's seed: the unlabeled vertex of minimum (degree,
  /// id) when the component opened, shared by the kRcm arm and repair.
  index_t seed = kNoVertex;
  /// Pseudo-peripheral root the CM labeling started from.
  index_t root = kNoVertex;
  /// Sweeps the pseudo-peripheral search took (0 = not recorded) — what
  /// plan_repair prices the speculative cold run of this component with.
  int sweeps = 0;
  /// First CM label of every BFS level from the root, PLUS a trailing
  /// one-past-the-end sentinel: level l occupies [starts[l], starts[l+1]),
  /// so starts.front() is the component's first label and starts.back()
  /// one past its last.
  std::vector<index_t> level_starts;

  index_t lo() const { return level_starts.front(); }
  index_t hi() const { return level_starts.back(); }
  index_t levels() const {
    return static_cast<index_t>(level_starts.size()) - 1;
  }
};

/// Level structure of a whole ordering, one entry per component in
/// discovery order (components tile [0, n) contiguously). Captured for
/// free during a cold run (the level starts are the SORTPERM bucket
/// boundaries the fused kernel already walks) and cached by the serving
/// layer next to the labels.
struct OrderingRecipe {
  std::vector<ComponentRecipe> components;
  bool empty() const { return components.empty(); }
};

/// What the repair will do with one cached component.
enum class RepairAction {
  kReuse,      ///< untouched by the delta: copy the cached labels, skip
               ///< the peripheral search and every level step
  kCone,       ///< delta confined to levels >= cone_level >= 2: re-run the
               ///< peripheral search (plain sweeps), copy levels <
               ///< cone_level, re-level only the cone below
  kRecompute,  ///< delta reaches level 0 or 1, or the cone would cost more
               ///< than cold's own speculative search + labeling: run that
               ///< routine (still cheaper than cold when others reuse)
};

struct ComponentRepairPlan {
  RepairAction action = RepairAction::kReuse;
  /// First level the cone re-runs (kCone only); levels < cone_level are
  /// spliced from the cache.
  index_t cone_level = 0;
};

/// Driver-side classification of a pattern delta against a cached
/// ordering: which components are touched, how deep, and whether repair
/// is guaranteed to cost strictly fewer ordering-phase barrier crossings
/// than a cold recompute.
struct RepairPlan {
  std::vector<ComponentRepairPlan> components;
  /// Non-terminal cm_level_step collectives the plan skips (3 crossings
  /// each); reused components additionally skip their peripheral search
  /// and terminal steps.
  index_t level_steps_skipped = 0;
  /// Conservative crossing margin of repair vs the SPECULATIVE cold run,
  /// from each component's recorded sweep count k and root eccentricity L
  /// (a BFS sweep costs 2L + 3 crossings, a CM run 3L + 2, an allreduce
  /// 1): reuse = cold's whole component minus the seed argmin; cone = the
  /// CM levels above cone_level minus the column-frontier gather (2) and
  /// the membership allreduce (1), minus 2L + 3 when k != 1 (the cone's
  /// plain sweep from the root, which cold runs as its ordering);
  /// recompute -1. Repair is only worth launching when > 0.
  index_t crossing_margin = 0;
  bool profitable = false;
};

/// Classifies `changed_rows` (half-open row ranges whose pattern hashes
/// changed, e.g. from the refined-fingerprint window diff) against a
/// cached ordering. `cached_labels` are the REVERSED (RCM) labels the
/// cache stores; `recipe` the structure captured when they were computed.
/// Pure driver-side arithmetic — no collective, no charge.
RepairPlan plan_repair(const OrderingRecipe& recipe,
                       const std::vector<index_t>& cached_labels,
                       const std::vector<std::pair<index_t, index_t>>&
                           changed_rows,
                       index_t n);

/// Outcome of dist_rcm_repair. `ok == false` means a structural change
/// (component split/merge/reorder) was detected mid-repair: `labels` is
/// empty, nothing was poisoned, and the caller must fall back to a cold
/// recompute. `ok == true` guarantees `labels` is BIT-IDENTICAL to what
/// dist_order (kRcm) would return on the new pattern (DRCM_CHECK-able, and checked
/// by the equivalence wall in tests/test_service_repair.cpp).
struct RepairResult {
  bool ok = false;
  std::string reason;  ///< why not ok (structured, for logs)
  std::vector<index_t> labels;  ///< replicated RCM labels when ok
  OrderingRecipe recipe;        ///< refreshed recipe matching `labels`
  int reused = 0;
  int coned = 0;
  int recomputed = 0;
  index_t level_steps_skipped = 0;
};

/// SPMD body: repairs a cached ordering against the delta'd pattern `a`
/// (replicated, self-loop-free) instead of recomputing it. Walks the
/// cached components in discovery order, re-verifying at every decision
/// point exactly what a cold run would have computed — the seed argmin
/// must land in the expected component, a dirty component's re-run
/// peripheral search must return the cached root for the cone splice to
/// apply (otherwise the component honestly recomputes), and every cone is
/// count- and membership-checked against the cached component before the
/// splice stands. Any violated check returns ok == false with labels
/// untouched. Requires options.load_balance == false (the balance
/// relabel would decouple the recipe's numbering from the caller's).
/// Collective on grid.world().
RepairResult dist_rcm_repair(dist::ProcGrid2D& grid,
                             const sparse::CsrMatrix& a,
                             const std::vector<index_t>& cached_labels,
                             const OrderingRecipe& recipe,
                             const RepairPlan& plan,
                             const DistRcmOptions& options = {});

/// SPMD body — the portfolio's algorithm-agnostic ordering entry point.
/// Dispatches on options.ordering.algorithm:
///   kRcm   — the paper's distributed RCM (peripheral search + fused CM
///            levels + reversal), honoring ordering.peripheral_mode;
///   kSloan — level-synchronous Sloan over the SAME fused level kernel:
///            per component the pseudo-diameter pair (s, e) is computed
///            distributively, the static Sloan key replaces the degree as
///            the SORTPERM ranking key, and no reversal is applied.
///            Bit-identical to order::sloan_levels;
///   kGps   — Gibbs-Poole-Stockmeyer, v1: each rank runs the replicated
///            serial order::gps on the (balanced) pattern, charged as
///            compute — an honest placeholder until GPS's level-merging
///            phase is distributed;
///   kAuto  — rcm::select_ordering resolves a concrete algorithm from
///            cheap per-matrix proxies before any collective launches
///            (deterministic, so every rank picks the same arm).
/// `a` must be the same replicated symmetric self-loop-free pattern on all
/// ranks. Returns the replicated label vector (labels[v] = new index of v
/// in the ORIGINAL numbering). `recipe`, when non-null, receives the
/// per-component level structure — captured on the kRcm arm only (Sloan
/// and GPS orderings are not repair-eligible in v1) and only without load
/// balancing (the recipe would be in the balanced numbering while the
/// labels are in the original one); either mismatch is a CheckError,
/// raised before any collective. `stats`, when non-null, records the
/// resolved algorithm. Collective on grid.world(), a perfect square on every
/// arm; kRcm and kSloan keep their scratch in grid.workspace().
std::vector<index_t> dist_order(dist::ProcGrid2D& grid,
                                const sparse::CsrMatrix& a,
                                const DistRcmOptions& options = {},
                                DistRcmStats* stats = nullptr,
                                OrderingRecipe* recipe = nullptr);

/// Launches `nranks` simulated ranks (a perfect square), runs dist_order on
/// their grid (dispatching on options.ordering), and returns the labels
/// plus the per-phase cost report (the data behind the paper's Figures
/// 4-6). run.stats.algorithm records what kAuto resolved to.
struct DistRcmRun {
  std::vector<index_t> labels;
  DistRcmStats stats;
  mps::SpmdReport report;
};

DistRcmRun run_dist_order(int nranks, const sparse::CsrMatrix& a,
                          const DistRcmOptions& options = {},
                          const mps::MachineParams& machine = {});

/// Why `labels` cannot relabel an n-vertex matrix, or empty when it is a
/// permutation of [0, n). The one label validator: it checks the caller's
/// known labels on the hit path, the recoverable runner's ordering
/// checkpoint and the service's ordering deposits before they reach the
/// cache. Local; no charge.
std::string permutation_error(const std::vector<index_t>& labels, index_t n);

/// The paper's Figure-1 pipeline as ONE distributed call: RCM ordering on
/// the 2D grid, ONE streaming redistribution routing every relabeled entry
/// straight to its 1D solver owner, a distributed rhs, and block-Jacobi
/// preconditioned CG producing per-rank solution slabs. Between ordering
/// and solution no rank materializes a replicated CSR or a replicated O(n)
/// value vector; the mpsim resident ledger records every stage's footprint
/// and ordered_solve asserts the per-rank peak stays O(nnz/p + n/p) (see
/// rcm_driver.cpp for the constants).
struct OrderedSolveResult {
  /// RCM labels of the ORIGINAL numbering (labels[v] = new index of v).
  std::vector<index_t> labels;
  /// Bandwidth of the permuted matrix, computed distributively.
  index_t permuted_bandwidth = 0;
  solver::CgResult cg;
  /// This rank's solution slab for PERMUTED rows [x_lo, x_lo +
  /// x_local.size()) — the SPMD-body output; the body never replicates the
  /// solution. Drivers deposit every rank's slab and assemble the
  /// replicated `x` outside the ranks (solver::assemble_solution).
  std::vector<double> x_local;
  index_t x_lo = 0;
  /// Replicated solution in the ORIGINAL numbering. Filled by
  /// run_ordered_solve_recoverable AFTER the SPMD runs (empty at SPMD-body
  /// level, where the no-gather contract forbids it).
  std::vector<double> x;
};

/// Everything one ordered solve needs, in one place — the parameter object
/// of ordered_solve and of the recoverable runner.
struct OrderedSolveSpec {
  /// Replicated SPD input (values required, diagonal included) — the
  /// pre-distribution fixture the simulator starts from. Required.
  const sparse::CsrMatrix* matrix = nullptr;
  /// Replicated rhs; must have matrix->n() entries.
  std::span<const double> b;
  bool precondition = true;
  DistRcmOptions rcm{};
  solver::CgOptions cg{};
  /// Optional pre-stripped adjacency equal to matrix->strip_diagonal()
  /// (null makes ordered_solve's ranks each strip a transient copy, and
  /// the launcher strip once outside the ranks). Ignored when `labels` is
  /// set.
  const sparse::CsrMatrix* adjacency = nullptr;
  /// When non-null: the ordering-cache HIT path. Stage 1 is skipped
  /// entirely and redistribution runs under these KNOWN labels, which must
  /// be a permutation of [0, n) (checked locally; anything else is a
  /// CheckError). The body executes ZERO collectives in the five ordering
  /// phases — the property the serving layer's crossing ledger asserts per
  /// hit — and the result's `labels` stays empty (the caller already holds
  /// them).
  const std::vector<index_t>* labels = nullptr;
  /// When non-null: receives the kRcm arm's level structure (cold runs
  /// only). dist_order rejects it off the kRcm arm or together with
  /// rcm.load_balance.
  OrderingRecipe* recipe = nullptr;
  /// When non-null (requires `labels`): the PLAN HIT. This rank's solve
  /// plan, built by an earlier request on the same pattern, under the same
  /// labels, on a world of the same size. Stages 2 and 3 then skip all
  /// symbolic work: values and rhs move one word each through the plan's
  /// receive-slot maps, and the bandwidth comes from the plan. The caller
  /// vouches for the match — the serving layer checks every rank's window
  /// digest against its plan in the fingerprint's allreduce — while the
  /// body checks sizes and slot ranges.
  const solver::SolvePlan* plan = nullptr;
  /// When non-null (and `plan` is null): receives this rank's solve plan,
  /// built from the routed pattern, for later plan hits.
  solver::SolvePlan* plan_out = nullptr;
};

/// THE pipeline: ordering (or label splice) -> one-shot redistribution
/// -> distributed CG, on a CALLER-OWNED grid, under the per-rank resident
/// budget DRCM_CHECK. The ProcGrid2D (and with it the per-rank
/// DistWorkspace staging every exchange) survives the call, so a serving
/// layer's request N+1 runs against warmed buffer capacities and its
/// workspace realloc ledger stays flat. Collective on grid.world().
OrderedSolveResult ordered_solve(dist::ProcGrid2D& grid,
                                 const OrderedSolveSpec& spec);

/// Retry policy of run_ordered_solve_recoverable.
struct RecoveryOptions {
  mps::MachineParams machine{};
  /// Scripted faults injected into every attempt's ranks; may be null.
  /// Actions are one-shot, so a fault consumed by a failed attempt does
  /// not re-fire in the retry — the property that makes bounded retries
  /// make progress.
  mps::FaultPlan* faults = nullptr;
  /// Barrier watchdog budget per attempt (see mps::RunOptions); 0 disables.
  double watchdog_seconds = 0.0;
  /// Attempts per stage (>= 1) before the last failure is rethrown.
  int max_attempts = 3;
  /// Modeled backoff charged as a stall on every rank at the start of
  /// retry k (linear: k * backoff seconds), so recovery cost shows up in
  /// the merged ledger like any other modeled time.
  double backoff_modeled_seconds = 0.05;
};

/// Result of a recoverable pipeline run. `report` is the sum over every
/// attempt — including abandoned ones — so injected stalls, partial work
/// and retry backoff all stay on the bill; `fault_log` names each failure
/// that was absorbed.
struct OrderedSolveRecoverableRun {
  OrderedSolveResult result;
  mps::SpmdReport report;
  /// Runtime::run launches performed (3 stages when fault-free).
  int runs = 0;
  /// One line per absorbed failure: "<stage> attempt <k>: <what>".
  std::vector<std::string> fault_log;
};

/// THE launcher of the Figure-1 pipeline: `nranks` simulated ranks (a
/// perfect square) run it with stage-boundary checkpoints and bounded
/// retries, and the replicated `x` is assembled outside the ranks. With
/// the default RecoveryOptions a fault-free run is one attempt per stage
/// and returns what ordered_solve computes in one body, bit for bit.
/// Execution is split into three SPMD runs — ordering (via
/// dist_order, so the whole portfolio is recoverable), redistribute (the
/// one-shot route to the 1D row blocks), solve — whose outputs (replicated
/// labels; per-rank row blocks) the driver holds between runs. A failed attempt
/// (rank death, injected allocation failure, corrupted payload tripping a
/// structural check or poisoning the CG recurrence, watchdog timeout) is
/// retried from the last checkpoint up to `max_attempts` times with
/// modeled backoff; one-shot fault semantics guarantee progress, and a
/// recovered run is bit-identical to a fault-free run. When a stage
/// exhausts its attempts the last structured error is rethrown — either
/// way the pipeline terminates in bounded time with a named outcome,
/// never a hang or a raw abort. The runner owns its own checkpoints:
/// spec.labels, spec.recipe, spec.plan and spec.plan_out must be null (a
/// CheckError otherwise).
OrderedSolveRecoverableRun run_ordered_solve_recoverable(
    int nranks, const OrderedSolveSpec& spec,
    const RecoveryOptions& recovery = {});

}  // namespace drcm::rcm
