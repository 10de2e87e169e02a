// Ordering-as-a-service: a batched, cached, concurrent request layer over
// the distributed RCM pipeline.
//
// A ReorderingService owns a fleet of `ranks` simulated MPI ranks and
// accepts a stream of OrderSolveRequests (matrix + rhs + options). Three
// amortizations turn the one-shot pipeline into a serving layer:
//
//   * WORKSPACE REUSE — one DistWorkspace per world rank persists across
//     requests (and across Runtime::run launches): every grid the service
//     builds adopts it (ProcGrid2D's external-workspace constructor), so
//     the realloc ledger extends across requests and steady-state repeats
//     of a shape run the exchanges reallocation-free.
//
//   * ORDERING CACHE — requests are keyed by a partition-invariant
//     sparsity-pattern fingerprint (service/fingerprint.hpp). A repeat
//     pattern skips BFS + SORTPERM entirely (the body asserts ZERO
//     ordering-phase barrier crossings on every hit), and with it the
//     symbolic half of the solve: each entry keeps the per-lane-rank
//     solver::SolvePlan its miss built, so a hit on a lane of the same
//     width moves values and rhs one word each through the plan's
//     receive-slot maps, refactors ILU(0) numerically and iterates — no
//     triple route, no bandwidth allreduce, no halo-request alltoallv, no
//     row sorts. Each rank checks its input window's digest against its
//     plan inside the fingerprint's allreduce; a mismatch (a fingerprint
//     collision) or another lane width rebuilds the plan from the request
//     and leaves the entry's own in place.
//     Eviction is COST/RECENCY weighted: each entry remembers the modeled
//     ordering seconds that produced it (cost_model_seconds, the slowest
//     lane rank's ordering phases), and the evictee minimizes cost / age —
//     an expensive ordering survives a stream of cheap one-offs that would
//     have FIFO'd it out.
//
//   * INCREMENTAL REPAIR — a near-miss (same n, small pattern delta) is
//     detected by diffing the refined fingerprint's row-window sub-sums
//     against cached entries. When rcm::plan_repair prices the repair
//     under a cold recompute, the lane runs rcm::dist_rcm_repair — reuse
//     untouched components, re-level only the affected BFS cone, splice —
//     and falls back to a cold ordering the moment any structural check
//     fails. Repair hits are priced strictly between a cache hit
//     (0 ordering crossings) and a cold run.
//
//   * BATCHED EXECUTION — independent requests of one batch run
//     CONCURRENTLY on disjoint square sub-grids (lanes) carved from the
//     parent world by one Comm::split; per-request SpmdReport ledgers come
//     back with each response. Identical fingerprints in one batch are
//     COALESCED: the first occurrence computes, twins wait a wave and are
//     served from the freshly inserted entry — the ordering runs exactly
//     once per distinct pattern per batch.
//
// Fault isolation: scripted FaultPlan failures are one-shot, so a killed
// request returns a structured kFault response while its batch peers are
// transparently relaunched from the driver's checkpoints and complete
// bit-identically to a fault-free run. A faulted request NEVER leaves a
// cache entry behind (labels are validated and inserted only after its
// lane deposited a completed result).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dist/workspace.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/runtime.hpp"
#include "rcm/rcm_driver.hpp"
#include "service/fingerprint.hpp"

namespace drcm::service {

/// One unit of work: order `matrix` (replicated SPD fixture, values and
/// diagonal included), then solve matrix * x = b in the permuted basis.
struct OrderSolveRequest {
  const sparse::CsrMatrix* matrix = nullptr;
  std::span<const double> b;
  bool precondition = true;
  rcm::DistRcmOptions rcm{};
  solver::CgOptions cg{};
};

enum class RequestStatus {
  kOk,
  kFault,  ///< killed by a fault (or relaunch budget exhausted); see `error`
};

struct OrderSolveResponse {
  RequestStatus status = RequestStatus::kOk;
  /// Structured failure description when status == kFault.
  std::string error;
  bool cache_hit = false;
  /// Produced by incremental repair (component reuse + cone re-level +
  /// splice) from a near-miss cached entry, with at least one level step
  /// or component actually skipped. Mutually exclusive with cache_hit;
  /// a repair that degraded all the way to a full recompute (or fell back
  /// cold) reports false.
  bool repair_hit = false;
  /// This request waited out at least one wave because an identical
  /// fingerprint was already computing in the same batch (coalescing).
  bool coalesced = false;
  /// The ordering algorithm that actually served the request (kAuto
  /// resolved to a concrete arm; never kAuto here).
  rcm::OrderingAlgorithm algorithm = rcm::OrderingAlgorithm::kRcm;
  /// True when the request asked for kAuto and the service resolved it.
  bool auto_selected = false;
  /// The selector's evidence, recorded for every kAuto request so callers
  /// can audit the decision (zeroed otherwise).
  rcm::OrderingProxies proxies{};
  /// Refined-fingerprint row windows that differed from the repair
  /// source's (repair attempts only; 0 otherwise).
  int changed_windows = 0;
  /// Non-terminal ordering level steps the repair skipped (repair hits
  /// only; each is 3 barrier crossings a cold run would have paid).
  index_t level_steps_skipped = 0;
  /// A cache hit that reused its entry's solve plans (every lane rank's
  /// window digest matched); false on misses and on hits that rebuilt.
  bool plan_reused = false;
  PatternFingerprint fingerprint{};
  index_t permuted_bandwidth = 0;
  solver::CgResult cg{};
  /// Replicated solution in the ORIGINAL numbering, assembled by the
  /// driver outside the ranks (solver::assemble_solution, as the launcher
  /// run_ordered_solve_recoverable does).
  std::vector<double> x;
  /// Per-lane-rank ledgers of THIS request alone: each rank's recorder is
  /// reset when the request starts and deposited when it completes, so the
  /// report isolates the request from its batch peers and predecessors.
  mps::SpmdReport report;
  /// Max over lane ranks of this request's ordering-phase barrier
  /// crossings. Asserted (and observed) to be 0 on every cache hit.
  std::uint64_t ordering_crossings = 0;
  /// Sum over lane ranks of workspace reallocations charged to this
  /// request. 0 in the steady state (a growth performed by request k is
  /// detected at the next checkout, so the ledger settles by request 3 of
  /// a fixed shape).
  std::uint64_t workspace_reallocations = 0;
  int lane = -1;
  int lane_ranks = 0;
};

/// Window-diff cap for repair candidacy (of kFingerprintWindows): a delta
/// touching more row windows than this recomputes cold.
inline constexpr int kRepairMaxWindows = 8;

struct ServiceOptions {
  /// World size of the service's rank fleet. Need not be square — lanes
  /// are carved as the largest square fitting the per-wave share.
  int ranks = 4;
  mps::MachineParams machine{};
  /// Scripted faults (one-shot actions), applied across ALL launches the
  /// service performs; may be null.
  mps::FaultPlan* faults = nullptr;
  double watchdog_seconds = 0.0;
  /// Relaunches (beyond the first launch) a batch may consume recovering
  /// from faults before surviving requests are failed outright.
  int max_relaunches = 3;
  /// Ordering-cache capacity in patterns (cost/recency-weighted
  /// eviction; 0 disables caching AND repair). The capacity may be
  /// briefly exceeded when every resident entry is pinned by the batch
  /// in flight — served entries are never evicted mid-batch.
  std::size_t cache_capacity = 64;
  /// Attempt incremental repair on near-miss patterns: a miss whose
  /// refined fingerprint differs from a repair-eligible cached entry in
  /// at most kRepairMaxWindows row windows is repaired (component
  /// reuse + cone re-level + splice) when rcm::plan_repair prices that
  /// strictly under a cold recompute.
  bool enable_repair = true;
  /// Debug cross-check: after every successful repair, run a
  /// stats-isolated cold ordering on the lane and DRCM_CHECK the repaired
  /// labels are bit-identical. Doubles the ordering cost of repairs (the
  /// cross-check is excluded from ledgers, but not from host wall time).
  bool verify_repair = false;
};

class ReorderingService {
 public:
  explicit ReorderingService(const ServiceOptions& options);

  /// Executes one request on the full fleet (one lane). Cache inserts are
  /// visible to the next submit, so a repeated pattern hits from the
  /// second submission on.
  OrderSolveResponse submit(const OrderSolveRequest& request);

  /// Executes a batch: requests are dealt round-robin onto disjoint
  /// square lanes and run concurrently; responses come back in request
  /// order. Cache lookups see the cache as of batch start (inserts land
  /// at batch end — lanes only ever READ the cache while ranks run).
  std::vector<OrderSolveResponse> submit_batch(
      std::span<const OrderSolveRequest> requests);

  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }
  /// Misses served by incremental repair (counted inside cache_misses).
  std::uint64_t repair_hits() const { return repair_hits_; }
  /// Requests served from an entry a same-batch twin inserted (counted
  /// inside cache_hits).
  std::uint64_t coalesced_served() const { return coalesced_served_; }
  std::size_t cache_size() const { return cache_.size(); }
  /// Runtime::run launches performed (relaunches included).
  int launches() const { return launches_; }
  /// Ledger folded over every launch, abandoned attempts included.
  const mps::SpmdReport& cumulative_report() const { return cumulative_; }
  /// Sum over ranks of persistent-workspace reallocations since
  /// construction (the cross-request warm-up metric).
  std::uint64_t workspace_reallocations() const;

 private:
  struct CacheEntry {
    std::vector<index_t> labels;
    /// Unsalted refined fingerprint of the pattern the labels order —
    /// the row-window sub-sums near-miss classification diffs against.
    RefinedFingerprint rf{};
    /// Level structure captured when the labels were computed (empty for
    /// entries that cannot seed repairs, e.g. balanced orderings).
    rcm::OrderingRecipe recipe;
    /// The RESOLVED ordering spec that produced the labels (kAuto already
    /// resolved). Repair candidacy demands an exact match with the
    /// request's resolved spec: splicing a Sloan or bi-criteria entry into
    /// an RCM repair would break bit-identity with cold.
    rcm::OrderingSpec spec{};
    /// Computed with load_balance == false AND carrying a recipe: the
    /// recipe's work numbering matches the original numbering, so the
    /// entry can seed dist_rcm_repair. Only kRcm entries qualify (Sloan
    /// and GPS runs capture no recipe).
    bool repair_eligible = false;
    /// Max over lane ranks of the modeled ordering-phase seconds that
    /// produced the labels — the numerator of the cost/recency eviction
    /// score. Modeled, not measured, so eviction order is deterministic.
    double cost_model_seconds = 0.0;
    /// Logical clock of the last insert-or-hit (eviction recency).
    std::uint64_t last_use_tick = 0;
    /// One solve plan per rank of the lane the inserting miss ran on,
    /// indexed by lane rank. Hits on lanes of plans.size() ranks reuse
    /// them; lanes only ever read them, concurrently.
    std::vector<solver::SolvePlan> plans;
  };

  using PinnedSet =
      std::unordered_set<PatternFingerprint, PatternFingerprintHash>;

  const CacheEntry* cache_find(const PatternFingerprint& fp) const;
  /// Inserts under cost/recency eviction. `pinned` entries (served to a
  /// request of the batch in flight) are never chosen as victims; when
  /// everything is pinned the cache temporarily overflows capacity.
  void cache_insert(const PatternFingerprint& fp, CacheEntry entry,
                    const PinnedSet& pinned);

  ServiceOptions options_;
  /// One persistent workspace per WORLD rank — the cross-request, cross-
  /// launch scratch the grids adopt. Indexed by world rank so a rank keeps
  /// its warmed capacities even as lane geometry changes between waves.
  std::vector<dist::DistWorkspace> workspaces_;
  std::unordered_map<PatternFingerprint, CacheEntry, PatternFingerprintHash>
      cache_;
  /// Logical clock behind last_use_tick: bumped on every insert and hit.
  std::uint64_t tick_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t repair_hits_ = 0;
  std::uint64_t coalesced_served_ = 0;
  int launches_ = 0;
  mps::SpmdReport cumulative_;
};

}  // namespace drcm::service
