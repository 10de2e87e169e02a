#include "service/service.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "dist/proc_grid.hpp"
#include "solver/dist_cg.hpp"

namespace drcm::service {

namespace {

/// How a batch wave is carved onto the rank fleet: `nlanes` disjoint
/// square sub-grids of `lane_size` ranks each, world ranks
/// [lane * lane_size, (lane + 1) * lane_size); ranks past
/// nlanes * lane_size sit the wave out (at most lane_size - 1 of them,
/// only when the fleet size is not itself square).
struct LanePlan {
  int lane_size = 1;
  int nlanes = 1;

  int color_of(int world_rank) const {
    const int lane = world_rank / lane_size;
    return lane < nlanes ? lane : nlanes;  // color nlanes = idle
  }
};

/// Carves lanes for `requests` concurrent requests on `ranks` ranks:
/// as many lanes as there are requests, each the LARGEST square grid
/// fitting the per-lane share — a single request always gets the full
/// largest-square lane, so the steady-state geometry (and with it the
/// warmed workspace capacities) is stable.
LanePlan plan_lanes(int ranks, std::size_t requests) {
  int desired = static_cast<int>(
      std::min<std::size_t>(requests, static_cast<std::size_t>(ranks)));
  desired = std::max(desired, 1);
  LanePlan plan;
  plan.lane_size = dist::largest_square_grid(std::max(ranks / desired, 1));
  plan.nlanes = std::min(desired, ranks / plan.lane_size);
  return plan;
}

/// One rank's modeled ordering-phase seconds: the cost a cache entry
/// remembers for cost/recency eviction (same five phases as
/// mps::ordering_crossings). Modeled rather than measured, so the score is
/// a deterministic function of the input: a preempted rank cannot make a
/// cheap ordering outrank an expensive one.
double ordering_model_seconds(const mps::StatsRecorder& stats) {
  return stats.phase(mps::Phase::kPeripheralSpmspv).model_total() +
         stats.phase(mps::Phase::kPeripheralOther).model_total() +
         stats.phase(mps::Phase::kOrderingSpmspv).model_total() +
         stats.phase(mps::Phase::kOrderingSort).model_total() +
         stats.phase(mps::Phase::kOrderingOther).model_total();
}

}  // namespace

ReorderingService::ReorderingService(const ServiceOptions& options)
    : options_(options),
      workspaces_(static_cast<std::size_t>(std::max(options.ranks, 1))) {
  DRCM_CHECK(options_.ranks >= 1, "service needs at least one rank");
  DRCM_CHECK(options_.max_relaunches >= 0, "negative relaunch budget");
  cumulative_.machine = options_.machine;
}

OrderSolveResponse ReorderingService::submit(const OrderSolveRequest& request) {
  auto responses = submit_batch(std::span<const OrderSolveRequest>(&request, 1));
  return std::move(responses.front());
}

std::vector<OrderSolveResponse> ReorderingService::submit_batch(
    std::span<const OrderSolveRequest> requests) {
  const std::size_t nreq = requests.size();
  std::vector<OrderSolveResponse> responses(nreq);
  if (nreq == 0) return responses;

  // Validate the fixtures up front and take each request's DRIVER-SIDE
  // refined fingerprint: the serial twin of the lane collective
  // (partition-invariant, so one rank owning everything is just another
  // cut). Scheduling — coalescing, repair candidacy — classifies on the
  // serial value BEFORE any rank launches; the lanes recompute the
  // fingerprint collectively (so the probe is charged to the ledger) and
  // DRCM_CHECK agreement.
  //
  // Each adjacency is stripped ONCE outside the ranks (simulated ranks
  // share an address space; the launcher does the same), and only
  // for a request that reads it: kAuto resolution here, a repair or cold
  // run after classification. A cache hit never strips.
  std::vector<sparse::CsrMatrix> adjacencies(nreq);
  std::vector<char> stripped(nreq, 0);
  const auto strip = [&](std::size_t i) {
    if (stripped[i]) return;
    adjacencies[i] = requests[i].matrix->strip_diagonal();
    stripped[i] = 1;
  };
  std::vector<RefinedFingerprint> refined(nreq);
  std::vector<PatternFingerprint> salted(nreq);
  // Per-request RESOLVED options: kAuto is resolved driver-side on the
  // stripped adjacency (the same input dist_order would resolve on), so
  // the cache key, the lane execution and the response all agree on the
  // concrete algorithm — and an auto request shares the slot of an
  // explicit request for its resolution.
  std::vector<rcm::DistRcmOptions> resolved(nreq);
  std::vector<char> auto_selected(nreq, 0);
  std::vector<rcm::OrderingProxies> proxies(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    const auto& rq = requests[i];
    DRCM_CHECK(rq.matrix != nullptr, "request needs a matrix");
    DRCM_CHECK(rq.b.size() == static_cast<std::size_t>(rq.matrix->n()),
               "request rhs size mismatch");
    refined[i] = fingerprint_pattern_serial(*rq.matrix);
    resolved[i] = rq.rcm;
    if (resolved[i].ordering.algorithm == rcm::OrderingAlgorithm::kAuto) {
      // The salt depends on the resolved algorithm, so kAuto strips first.
      strip(i);
      const auto choice = rcm::select_ordering(adjacencies[i]);
      resolved[i].ordering.algorithm = choice.algorithm;
      auto_selected[i] = 1;
      proxies[i] = choice.proxies;
    }
    salted[i] = salt_ordering_options(refined[i].fp, resolved[i]);
  }

  // Driver-side checkpoints, deposited by the ranks and read only after
  // Runtime::run has joined every thread (it joins on faults too, so the
  // deposits of completed requests survive an aborted launch).
  std::vector<char> done(nreq, 0);
  std::vector<std::vector<std::vector<double>>> slabs(nreq);
  std::vector<std::vector<index_t>> pending_labels(nreq);
  std::vector<rcm::OrderingRecipe> pending_recipes(nreq);
  /// Per-lane-rank solve plans a miss built, deposited by each rank.
  std::vector<std::vector<solver::SolvePlan>> pending_plans(nreq);
  /// Coalescing memo: the request sat out a wave behind an identical
  /// in-flight fingerprint (reported as OrderSolveResponse::coalesced).
  std::vector<char> was_deferred(nreq, 0);
  /// A fault killed this request mid-repair: the relaunch runs it COLD —
  /// the opportunistic path lost its chance, the request did not.
  std::vector<char> no_repair(nreq, 0);

  std::vector<std::size_t> remaining(nreq);
  for (std::size_t i = 0; i < nreq; ++i) remaining[i] = i;

  // Entries a request of THIS batch was served from (hits and repair
  // sources) are pinned: wave-end inserts may never evict them while the
  // batch is in flight (satellite: coalesced twins land exactly here).
  PinnedSet pinned;

  // Finalized miss orderings, applied to the cache at WAVE end — after
  // the launch joined (lanes only ever READ the cache while ranks run)
  // and before the next wave schedules, so a deferred twin hits the
  // entry its sibling just computed.
  std::vector<std::pair<PatternFingerprint, CacheEntry>> to_insert;

  const int P = options_.ranks;
  int relaunches = 0;
  std::string last_error = "unknown failure";

  while (!remaining.empty()) {
    // ---- Wave scheduling: coalescing -------------------------------
    // Exact hits all run (they share the entry read-only). Of the
    // misses, only the FIRST occurrence of each salted fingerprint runs
    // this wave; twins wait a wave and are served from the insert.
    std::vector<std::size_t> wave;
    std::vector<std::size_t> deferred;
    {
      PinnedSet inflight;
      for (const std::size_t req : remaining) {
        if (cache_.find(salted[req]) != cache_.end() ||
            inflight.insert(salted[req]).second) {
          wave.push_back(req);
        } else {
          deferred.push_back(req);
          was_deferred[req] = 1;
        }
      }
    }

    // ---- Wave scheduling: hit / repair / cold classification -------
    enum class Mode { kCold, kHit, kRepair };
    std::vector<Mode> mode(nreq, Mode::kCold);
    std::vector<rcm::RepairPlan> plans(nreq);
    std::vector<const CacheEntry*> sources(nreq, nullptr);
    std::vector<PatternFingerprint> source_fp(nreq);
    std::vector<int> diff_windows(nreq, 0);
    for (const std::size_t req : wave) {
      const auto& rq = requests[req];
      if (cache_.find(salted[req]) != cache_.end()) {
        mode[req] = Mode::kHit;
        continue;
      }
      if (!options_.enable_repair || no_repair[req] || rq.rcm.load_balance ||
          resolved[req].ordering.algorithm != rcm::OrderingAlgorithm::kRcm) {
        // Repair is RCM-only in v1: Sloan and GPS runs capture no recipe,
        // so there is nothing sound to splice — decline honestly and run
        // the request cold.
        continue;
      }
      // Repair candidate: the repair-eligible entry of the same n with
      // the FEWEST differing row windows (ties to most recently used —
      // a deterministic tie-break; map order is not), under the cap.
      const CacheEntry* best = nullptr;
      PatternFingerprint best_fp{};
      int best_diff = 0;
      std::uint64_t best_tick = 0;
      for (const auto& [fp, entry] : cache_) {
        if (!entry.repair_eligible || entry.rf.fp.n != refined[req].fp.n) {
          continue;
        }
        // The cached labels must come from the SAME resolved ordering the
        // request wants: splicing across algorithms or peripheral modes
        // would break the repair's bit-identity-with-cold contract.
        if (entry.spec.algorithm != resolved[req].ordering.algorithm ||
            entry.spec.peripheral_mode !=
                resolved[req].ordering.peripheral_mode) {
          continue;
        }
        int diff = 0;
        for (int w = 0; w < kFingerprintWindows; ++w) {
          diff += entry.rf.windows[static_cast<std::size_t>(w)] !=
                  refined[req].windows[static_cast<std::size_t>(w)];
        }
        if (diff < 1 || diff > kRepairMaxWindows) continue;
        if (best == nullptr || diff < best_diff ||
            (diff == best_diff && entry.last_use_tick > best_tick)) {
          best = &entry;
          best_fp = fp;
          best_diff = diff;
          best_tick = entry.last_use_tick;
        }
      }
      if (best == nullptr) continue;
      std::vector<std::pair<index_t, index_t>> changed;
      for (int w = 0; w < kFingerprintWindows; ++w) {
        if (best->rf.windows[static_cast<std::size_t>(w)] !=
            refined[req].windows[static_cast<std::size_t>(w)]) {
          changed.push_back(fingerprint_window_rows(w, refined[req].fp.n));
        }
      }
      rcm::RepairPlan repair_plan = rcm::plan_repair(
          best->recipe, best->labels, changed, refined[req].fp.n);
      if (!repair_plan.profitable) continue;
      mode[req] = Mode::kRepair;
      plans[req] = std::move(repair_plan);
      sources[req] = best;
      source_fp[req] = best_fp;
      diff_windows[req] = best_diff;
    }

    for (const std::size_t req : wave) {
      if (mode[req] != Mode::kHit) strip(req);
    }

    const LanePlan plan = plan_lanes(P, wave.size());

    // Deal the wave's requests round-robin onto the lanes.
    std::vector<std::vector<std::size_t>> lane_queue(
        static_cast<std::size_t>(plan.nlanes));
    for (std::size_t i = 0; i < wave.size(); ++i) {
      lane_queue[i % static_cast<std::size_t>(plan.nlanes)].push_back(wave[i]);
    }

    // Fresh per-attempt deposit slots (an aborted attempt's partial
    // deposits for unfinished requests must not leak into this one).
    for (const std::size_t req : wave) {
      responses[req] = OrderSolveResponse{};
      responses[req].report.ranks.resize(
          static_cast<std::size_t>(plan.lane_size));
      responses[req].algorithm = resolved[req].ordering.algorithm;
      responses[req].auto_selected = auto_selected[req] != 0;
      responses[req].proxies = proxies[req];
      slabs[req].assign(static_cast<std::size_t>(plan.lane_size), {});
      pending_labels[req].clear();
      pending_recipes[req] = rcm::OrderingRecipe{};
      pending_plans[req].assign(static_cast<std::size_t>(plan.lane_size), {});
    }

    // Which request each world rank is inside, for fault attribution.
    std::vector<int> current_request(static_cast<std::size_t>(P), -1);

    const auto body = [&](mps::Comm& world) {
      const int wr = world.rank();
      const int color = plan.color_of(wr);
      mps::Comm lane = world.split(color, wr);
      if (color == plan.nlanes) return;  // idle this wave

      // The lane grid adopts this WORLD rank's persistent workspace, so
      // buffer capacities warmed by earlier requests (and earlier waves)
      // carry over and the realloc ledger spans the whole stream.
      dist::ProcGrid2D grid(lane, &workspaces_[static_cast<std::size_t>(wr)]);

      for (const std::size_t req : lane_queue[static_cast<std::size_t>(color)]) {
        current_request[static_cast<std::size_t>(wr)] = static_cast<int>(req);
        const auto& rq = requests[req];
        // The RESOLVED options (kAuto already concrete) are what the lane
        // executes — so the salt, the entry and the run can never diverge.
        const auto& ropt = resolved[req];

        // Per-request ledger isolation: park the attempt's running totals,
        // run the request on a zeroed recorder (peak_resident included, so
        // the pipeline's per-rank budget asserts per request), then fold
        // the request's segment back into the running totals.
        const auto saved = lane.stats();
        lane.stats().reset();
        const auto realloc0 =
            workspaces_[static_cast<std::size_t>(wr)].reallocations();

        // A hit reuses its entry's solve plans when the entry holds one per
        // rank of a lane this wide; the guard below confirms the windows.
        const CacheEntry* entry = nullptr;
        PlanGuard guard;
        if (mode[req] == Mode::kHit) {
          entry = cache_find(salted[req]);
          DRCM_CHECK(entry != nullptr, "scheduled hit lost its entry");
          if (entry->plans.size() == static_cast<std::size_t>(lane.size())) {
            guard.plan = &entry->plans[static_cast<std::size_t>(lane.rank())];
          }
        }

        // The lane's collective fingerprint (charged to kOther) must
        // reproduce the driver's serial classification value bit for bit
        // — partition invariance is the property the whole schedule
        // rests on. On a hit its allreduce also decides, on every rank
        // together, whether each rank's input window still matches its
        // plan: a fingerprint collision or a different lane width rebuilds
        // the plan from the request, and the entry keeps its own.
        const RefinedFingerprint rf = fingerprint_pattern_refined(
            lane, *rq.matrix, grid,
            mode[req] == Mode::kHit ? &guard : nullptr);
        const PatternFingerprint fp = salt_ordering_options(rf.fp, ropt);
        DRCM_CHECK(fp == salted[req] && rf.windows == refined[req].windows,
                   "lane fingerprint must match the driver's serial twin");

        // Recipe capture (rank 0 only — the vector is driver-side) is
        // what makes a cold entry repair-eligible; balanced orderings
        // skip it (their work numbering is decoupled by the relabel), and
        // so do non-RCM arms (dist_order captures recipes on kRcm only).
        rcm::OrderingRecipe* recipe_sink =
            (lane.rank() == 0 && !rq.rcm.load_balance &&
             ropt.ordering.algorithm == rcm::OrderingAlgorithm::kRcm)
                ? &pending_recipes[req]
                : nullptr;

        rcm::OrderedSolveSpec spec;
        spec.matrix = rq.matrix;
        spec.b = rq.b;
        spec.precondition = rq.precondition;
        spec.rcm = ropt;
        spec.cg = rq.cg;
        rcm::RepairResult rep;
        bool repaired = false;
        if (mode[req] == Mode::kHit) {
          spec.labels = &entry->labels;
          if (guard.accepted) spec.plan = guard.plan;
        } else if (mode[req] == Mode::kRepair) {
          const CacheEntry* src = sources[req];
          rep = rcm::dist_rcm_repair(grid, adjacencies[req], src->labels,
                                     src->recipe, plans[req], ropt);
          if (rep.ok) {
            if (options_.verify_repair) {
              // Stats-isolated cross-check: the cold ordering must agree
              // bit for bit, but its collectives must not pollute this
              // request's ledger (or the crossing comparison the repair
              // exists to win).
              const auto parked = lane.stats();
              lane.stats().reset();
              const auto cold = rcm::dist_order(grid, adjacencies[req], ropt);
              lane.stats() = parked;
              DRCM_CHECK(cold == rep.labels,
                         "repair must be bit-identical to a cold recompute");
            }
            spec.labels = &rep.labels;
            repaired = true;
          }
          // Otherwise a structural change was detected mid-repair
          // (component split/merge/reorder): honest cold fallback below.
        }
        if (spec.labels == nullptr) {
          // Cold: recipe captured so the fresh entry is itself
          // repair-eligible.
          spec.adjacency = &adjacencies[req];
          spec.recipe = recipe_sink;
        }
        if (mode[req] != Mode::kHit) {
          // Every miss leaves its plans with the entry it inserts.
          spec.plan_out =
              &pending_plans[req][static_cast<std::size_t>(lane.rank())];
        }
        rcm::OrderedSolveResult result = rcm::ordered_solve(grid, spec);
        if (mode[req] == Mode::kHit) {
          DRCM_CHECK(mps::ordering_crossings(lane.stats()) == 0,
                     "cache hit must skip every ordering collective");
        }
        if (repaired) result.labels = std::move(rep.labels);

        const std::uint64_t my_crossings =
            mps::ordering_crossings(lane.stats());
        const std::uint64_t my_reallocs =
            workspaces_[static_cast<std::size_t>(wr)].reallocations() -
            realloc0;
        const auto max_crossings = lane.allreduce(
            my_crossings,
            [](std::uint64_t x, std::uint64_t y) { return std::max(x, y); });
        const auto sum_reallocs = lane.allreduce(
            my_reallocs,
            [](std::uint64_t x, std::uint64_t y) { return x + y; });

        const auto mine = lane.stats();
        lane.stats() = saved;
        lane.stats().merge_from(mine);

        // Deposit this rank's share. Lane rank 0 flips `done` LAST: the
        // flip happens after both allreduces above, which every lane rank
        // must have entered, and each rank's deposits precede its next
        // collective — so done == 1 guarantees complete deposits by the
        // time the runtime has joined the threads.
        slabs[req][static_cast<std::size_t>(lane.rank())] =
            std::move(result.x_local);
        responses[req].report.ranks[static_cast<std::size_t>(lane.rank())] =
            mine;
        if (lane.rank() == 0) {
          auto& resp = responses[req];
          resp.cache_hit = mode[req] == Mode::kHit;
          resp.plan_reused = spec.plan != nullptr;
          // A repair only counts as a HIT when it actually skipped work;
          // one that degraded to a full recompute is honest about it.
          resp.repair_hit =
              repaired && (rep.reused >= 1 || rep.level_steps_skipped >= 1);
          resp.level_steps_skipped = repaired ? rep.level_steps_skipped : 0;
          resp.changed_windows =
              mode[req] == Mode::kRepair ? diff_windows[req] : 0;
          resp.fingerprint = fp;
          resp.permuted_bandwidth = result.permuted_bandwidth;
          resp.cg = result.cg;
          resp.ordering_crossings = max_crossings;
          resp.workspace_reallocations = sum_reallocs;
          resp.lane = color;
          resp.lane_ranks = plan.lane_size;
          if (mode[req] != Mode::kHit) {
            pending_labels[req] = std::move(result.labels);
            if (repaired) pending_recipes[req] = std::move(rep.recipe);
          }
          done[req] = 1;
        }
        current_request[static_cast<std::size_t>(wr)] = -1;
      }
    };

    // Finalizes every request the launch completed: assemble the
    // replicated solution outside the ranks (as the launcher does),
    // count the cache outcome, bump/pin served entries, stage miss
    // orderings for the wave-end insert, and drop the request from the
    // wave.
    const auto finalize_wave = [&]() {
      std::vector<std::size_t> still;
      still.reserve(wave.size());
      for (const std::size_t req : wave) {
        if (!done[req]) {
          still.push_back(req);
          continue;
        }
        auto& resp = responses[req];
        const index_t n = requests[req].matrix->n();
        resp.coalesced = was_deferred[req] != 0;
        const std::vector<index_t>* labels = nullptr;
        if (resp.cache_hit) {
          ++cache_hits_;
          if (resp.coalesced) ++coalesced_served_;
          const auto it = cache_.find(resp.fingerprint);
          DRCM_CHECK(it != cache_.end(), "hit entry vanished mid-batch");
          it->second.last_use_tick = ++tick_;
          pinned.insert(resp.fingerprint);
          labels = &it->second.labels;
        } else {
          ++cache_misses_;
          // Labels must be a permutation of [0, n) before they may touch
          // the cache or index the solution assembly — a faulted or
          // corrupted ordering surfaces as a structured error, never as a
          // poisoned cache entry.
          const std::string bad =
              rcm::permutation_error(pending_labels[req], n);
          if (!bad.empty()) {
            resp.status = RequestStatus::kFault;
            resp.error = "ordering produced an invalid permutation: " + bad;
            continue;
          }
          labels = &pending_labels[req];
          if (resp.repair_hit) {
            ++repair_hits_;
            // The repair source was served FROM: recency-bump and pin it
            // like a hit (a wave-end insert must not evict it either).
            const auto it = cache_.find(source_fp[req]);
            if (it != cache_.end()) {
              it->second.last_use_tick = ++tick_;
              pinned.insert(source_fp[req]);
            }
          }
        }
        resp.x = solver::assemble_solution(slabs[req], *labels);
        resp.status = RequestStatus::kOk;
        resp.report.machine = options_.machine;
        if (!resp.cache_hit) {
          CacheEntry entry;
          entry.labels = std::move(pending_labels[req]);
          entry.rf = refined[req];
          entry.spec = resolved[req].ordering;
          entry.recipe = std::move(pending_recipes[req]);
          entry.plans = std::move(pending_plans[req]);
          entry.repair_eligible =
              !requests[req].rcm.load_balance && !entry.recipe.empty() &&
              entry.spec.algorithm == rcm::OrderingAlgorithm::kRcm;
          for (const auto& rank_stats : resp.report.ranks) {
            entry.cost_model_seconds = std::max(
                entry.cost_model_seconds, ordering_model_seconds(rank_stats));
          }
          to_insert.emplace_back(salted[req], std::move(entry));
        }
      }
      wave.swap(still);
    };

    mps::SpmdReport partial;
    mps::RunOptions run_options;
    run_options.machine = options_.machine;
    run_options.faults = options_.faults;
    run_options.watchdog_seconds = options_.watchdog_seconds;
    run_options.report_on_error = &partial;

    // Attributable fault: the dying rank's in-flight request gets a
    // structured kFault response — unless it died mid-REPAIR, in which case
    // the request survives and relaunches cold (the cache is untouched
    // either way; inserts only follow validated deposits). Everyone else is
    // relaunched from the driver's checkpoints (one-shot actions cannot
    // re-fire).
    auto attribute_fault = [&](int rank, std::string message) {
      cumulative_.merge_from(partial);
      finalize_wave();
      last_error = std::move(message);
      const int victim = current_request[static_cast<std::size_t>(rank)];
      if (victim >= 0 && !done[static_cast<std::size_t>(victim)]) {
        if (mode[static_cast<std::size_t>(victim)] == Mode::kRepair) {
          no_repair[static_cast<std::size_t>(victim)] = 1;
        } else {
          auto& resp = responses[static_cast<std::size_t>(victim)];
          resp.status = RequestStatus::kFault;
          resp.error = last_error;
          wave.erase(std::remove(wave.begin(), wave.end(),
                                 static_cast<std::size_t>(victim)),
                     wave.end());
        }
      }
      ++relaunches;
    };

    ++launches_;
    bool wave_clean = false;
    try {
      const auto report = mps::Runtime::run(P, body, run_options);
      cumulative_.merge_from(report);
      finalize_wave();
      DRCM_CHECK(wave.empty(),
                 "fault-free launch must complete every scheduled request");
      wave_clean = true;
    } catch (const mps::InjectedFault& f) {
      attribute_fault(f.rank(), std::string("injected ") +
                                    mps::fault_kind_name(f.kind()) +
                                    " on rank " + std::to_string(f.rank()) +
                                    " at collective " +
                                    std::to_string(f.ordinal()));
    } catch (const mps::InjectedAllocFailure& f) {
      attribute_fault(f.rank(), "injected alloc-failure on rank " +
                                    std::to_string(f.rank()) +
                                    " at collective " +
                                    std::to_string(f.ordinal()));
    } catch (const std::exception& e) {
      // No rank attribution (corruption faults surface as downstream check
      // failures; watchdog timeouts name no single request): retry every
      // unfinished request — one-shot fault semantics still guarantee the
      // relaunch makes progress.
      cumulative_.merge_from(partial);
      finalize_wave();
      last_error = e.what();
      ++relaunches;
    }

    // Wave-end inserts: after the launch joined (lanes never see the
    // cache move) and before the next wave schedules — a deferred twin's
    // next classification finds its sibling's entry and HITS.
    for (auto& [fp, entry] : to_insert) {
      cache_insert(fp, std::move(entry), pinned);
    }
    to_insert.clear();

    remaining = std::move(wave);
    remaining.insert(remaining.end(), deferred.begin(), deferred.end());

    if (!wave_clean && relaunches > options_.max_relaunches &&
        !remaining.empty()) {
      for (const std::size_t req : remaining) {
        responses[req].status = RequestStatus::kFault;
        responses[req].error = "relaunch budget exhausted: " + last_error;
      }
      remaining.clear();
    }
  }

  return responses;
}

std::uint64_t ReorderingService::workspace_reallocations() const {
  std::uint64_t total = 0;
  for (const auto& ws : workspaces_) total += ws.reallocations();
  return total;
}

const ReorderingService::CacheEntry* ReorderingService::cache_find(
    const PatternFingerprint& fp) const {
  const auto it = cache_.find(fp);
  return it == cache_.end() ? nullptr : &it->second;
}

void ReorderingService::cache_insert(const PatternFingerprint& fp,
                                     CacheEntry entry,
                                     const PinnedSet& pinned) {
  if (options_.cache_capacity == 0) return;
  // A pattern can race into to_insert twice across waves (a relaunched
  // miss whose twin already landed); keep the first — it is the entry
  // twins were served from.
  if (cache_.find(fp) != cache_.end()) return;
  while (cache_.size() >= options_.cache_capacity) {
    // Cost/recency eviction: the victim minimizes cost_model_seconds / age
    // (age in ticks since last insert-or-hit), ties to least recently
    // used — an expensive ordering outlives a stream of cheap one-offs.
    // Pinned entries (served to the batch in flight) are exempt; when
    // everything resident is pinned the cache briefly overflows rather
    // than invalidate an entry a same-batch twin was served from.
    auto victim = cache_.end();
    double victim_score = 0.0;
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (pinned.find(it->first) != pinned.end()) continue;
      const double age =
          static_cast<double>(tick_ - it->second.last_use_tick) + 1.0;
      const double score = it->second.cost_model_seconds / age;
      if (victim == cache_.end() || score < victim_score ||
          (score == victim_score &&
           it->second.last_use_tick < victim->second.last_use_tick)) {
        victim = it;
        victim_score = score;
      }
    }
    if (victim == cache_.end()) break;  // everything pinned: overflow
    DRCM_CHECK(pinned.find(victim->first) == pinned.end(),
               "eviction must never take an entry the batch was served from");
    cache_.erase(victim);
  }
  entry.last_use_tick = ++tick_;
  cache_.emplace(fp, std::move(entry));
}

}  // namespace drcm::service
