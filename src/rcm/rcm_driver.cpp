#include "rcm/rcm_driver.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <string>

#include "dist/level_kernel.hpp"
#include "dist/primitives.hpp"
#include "dist/redistribute.hpp"
#include "dist/row_block.hpp"
#include "order/gps.hpp"
#include "order/sloan.hpp"
#include "rcm/dist_bfs.hpp"
#include "rcm/dist_peripheral.hpp"
#include "solver/dist_cg.hpp"
#include "sparse/permute.hpp"

namespace drcm::rcm {

namespace {

/// The concrete algorithm `options` asks for on the adjacency pattern `a`:
/// kAuto resolves BEFORE any collective — the selector is a deterministic
/// function of the replicated pattern, so every rank lands on the same arm
/// without communicating. Charged to kOther.
OrderingAlgorithm resolve_algorithm(mps::Comm& world,
                                    const sparse::CsrMatrix& a,
                                    const DistRcmOptions& options) {
  if (options.ordering.algorithm != OrderingAlgorithm::kAuto) {
    return options.ordering.algorithm;
  }
  mps::PhaseScope scope(world, mps::Phase::kOther);
  world.charge_compute(static_cast<double>(a.nnz() + a.n()));
  return select_ordering(a).algorithm;
}

/// The adjacency-pattern precondition of the distributed ordering entries:
/// no stored diagonal entry. Each rank searches only its 1D row block (n/p
/// rows), so together the ranks read every row once. A rank that finds a
/// diagonal entry throws `what`; Runtime::run reports that root cause ahead
/// of the PoisonedError its peers get at their next collective.
void check_no_self_loops(const mps::Comm& world, const sparse::CsrMatrix& a,
                         const char* what) {
  const index_t n = a.n();
  const index_t hi = dist::row_block_lo(n, world.size(), world.rank() + 1);
  for (index_t i = dist::row_block_lo(n, world.size(), world.rank()); i < hi;
       ++i) {
    const auto row = a.row(i);
    DRCM_CHECK(!std::binary_search(row.begin(), row.end(), i), what);
  }
}

/// Turns the CM labels of an n-vertex ordering into RCM labels in place
/// (RCM = reversed CM), still distributed. Local; charged to kOrderingOther.
void reverse_labels(mps::Comm& world, dist::DistDenseVec& labels, index_t n) {
  mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
  for (index_t g = labels.lo(); g < labels.hi(); ++g) {
    labels.set(g, n - 1 - labels.get(g));
  }
  world.charge_compute(static_cast<double>(labels.local_size()));
}

/// The one component walk of the kRcm, kSloan and repair arms: it owns the
/// work pattern's decomposition on the caller's grid (block, degrees, CM
/// labels, kNoVertex = unlabeled). The collective run() opens each component
/// at its seed, the unlabeled vertex of minimum (degree, id); `body(seed,
/// first_label)` labels it and returns the next free label (kNoVertex stops).
struct ComponentWalk {
  ComponentWalk(dist::ProcGrid2D& grid, const sparse::CsrMatrix& work)
      : mat(grid, work),
        degrees(mat.degrees(grid)),
        labels(mat.vec_dist(), grid, kNoVertex) {}

  void run(mps::Comm& world,
           const std::function<index_t(index_t, index_t)>& body) {
    for (index_t next = 0; next != kNoVertex && next < mat.n();) {
      index_t seed = kNoVertex;
      {
        mps::PhaseScope scope(world, mps::Phase::kPeripheralOther);
        seed = dist::argmin_unvisited(labels, degrees, world).second;
      }
      DRCM_CHECK(seed != kNoVertex, "unlabeled vertices must exist");
      next = body(seed, next);
    }
  }

  dist::DistSpMat mat;
  dist::DistDenseVec degrees;
  dist::DistDenseVec labels;
};

/// The kRcm arm: decompose `work` onto `grid`, search + CM-label each
/// component, reverse. Returns the labels in the WORK numbering with the
/// decomposition already freed, for dist_order to gather.
dist::DistDenseVec dist_rcm_levels(dist::ProcGrid2D& grid,
                                   const sparse::CsrMatrix& work,
                                   const DistRcmOptions& options,
                                   DistRcmStats& stats,
                                   OrderingRecipe* recipe) {
  ComponentWalk walk(grid, work);
  walk.run(grid.world(), [&](index_t seed, index_t first_label) {
    std::vector<index_t> starts;
    const auto comp = dist_order_component(
        walk.mat, walk.degrees, walk.labels, seed, first_label, grid,
        options.ordering.peripheral_mode, recipe ? &starts : nullptr);
    stats.components += 1;
    stats.peripheral_bfs_sweeps += comp.sweeps;
    stats.discarded_sweeps += comp.discarded_sweeps;
    stats.ordering_levels += comp.eccentricity + 1;
    if (recipe) {
      starts.push_back(comp.next_label);  // one-past-the-end sentinel
      recipe->components.push_back(
          {seed, comp.root, comp.sweeps, std::move(starts)});
    }
    return comp.next_label;
  });
  reverse_labels(grid.world(), walk.labels, work.n());
  return std::move(walk.labels);
}

/// The kSloan arm: level-synchronous Sloan over the same fused level
/// kernel, bit-identical to order::sloan_levels (the serial twin). Per
/// component: distributed pseudo-peripheral s (plain sweeps), REDUCE of
/// s's last BFS level — which the search's last sweep from s already
/// holds — to the end vertex e (min degree, ties id, the same rule serial
/// Sloan applies), one more BFS for distances to e, then CM-style level
/// expansion from s with the static Sloan key substituted for the degree
/// as the SORTPERM ranking key. No reversal (Sloan numbers front-to-back).
dist::DistDenseVec dist_sloan_levels(dist::ProcGrid2D& grid,
                                     const sparse::CsrMatrix& work,
                                     const DistRcmOptions& options,
                                     DistRcmStats& stats) {
  auto& world = grid.world();
  ComponentWalk walk(grid, work);
  const auto& degrees = walk.degrees;
  dist::DistDenseVec keys(walk.mat.vec_dist(), grid, 0);
  dist::DistDenseVec levels(walk.mat.vec_dist(), grid, kNoVertex);
  const order::SloanOptions weights{};  // w1 = 2, w2 = 1, as serial

  walk.run(world, [&](index_t seed, index_t first_label) {
    const auto peripheral =
        dist_pseudo_peripheral(walk.mat, degrees, seed, grid,
                               options.ordering.peripheral_mode);
    stats.components += 1;
    stats.peripheral_bfs_sweeps += peripheral.bfs_sweeps;
    stats.ordering_levels += peripheral.eccentricity + 1;
    const index_t s = peripheral.vertex;

    // Pseudo-diameter end vertex e: REDUCE(last level of s's BFS, D).
    index_t e = kNoVertex;
    {
      mps::PhaseScope scope(world, mps::Phase::kPeripheralOther);
      e = dist::reduce_argmin(peripheral.last_frontier, degrees, world).second;
    }
    DRCM_CHECK(e != kNoVertex, "last BFS level cannot be empty");
    const auto bfs_e =
        dist_bfs(walk.mat, e, levels, grid, mps::Phase::kPeripheralSpmspv,
                 mps::Phase::kPeripheralOther);

    // Static key = w1*(deg+1) + w2*(ecc(e) - dist(v, e)), non-negative and
    // < 3n with the default weights — within the widened ranking-key bound
    // the SORTPERM receive-path checks admit. Owned writes only; vertices
    // of other components keep stale keys that no expansion ever reads.
    {
      mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
      for (index_t g = keys.lo(); g < keys.hi(); ++g) {
        const index_t lev = levels.get(g);
        if (lev == kNoVertex) continue;
        keys.set(g, weights.w1 * (degrees.get(g) + 1) +
                        weights.w2 * (bfs_e.eccentricity - lev));
      }
      world.charge_compute(static_cast<double>(keys.local_size()));
    }
    return dist_cm_component(walk.mat, keys, walk.labels, s, first_label, grid)
        .next_label;
  });
  return std::move(walk.labels);  // no reversal
}

/// The kGps arm, v1: each rank runs the replicated serial GPS on the
/// (balanced) pattern, charged as compute under the ordering ledger. An
/// honest placeholder — GPS's combined-level-structure phase has no
/// distributed formulation here yet, so no crossing count is claimed.
std::vector<index_t> gps_replicated(mps::Comm& world,
                                    const sparse::CsrMatrix& work) {
  mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
  auto labels = order::gps(work);
  // Every rank pays the full serial walk — that is what "replicated serial
  // arm" costs, and the ledger should say so.
  world.charge_compute(static_cast<double>(work.nnz() + work.n()));
  return labels;
}

}  // namespace

std::vector<index_t> dist_order(dist::ProcGrid2D& grid,
                                const sparse::CsrMatrix& a,
                                const DistRcmOptions& options,
                                DistRcmStats* stats, OrderingRecipe* recipe) {
  auto& world = grid.world();
  check_no_self_loops(
      world, a, "dist_order expects an adjacency pattern (strip_diagonal first)");
  DRCM_CHECK(recipe == nullptr || !options.load_balance,
             "ordering recipes are captured without load balancing only "
             "(the recipe would be in the balanced numbering, the labels in "
             "the original one)");
  const index_t n = a.n();

  DistRcmOptions resolved = options;
  resolved.ordering.algorithm = resolve_algorithm(world, a, options);
  DRCM_CHECK(recipe == nullptr ||
                 resolved.ordering.algorithm == OrderingAlgorithm::kRcm,
             "ordering recipes are captured on the kRcm arm only "
             "(Sloan/GPS orderings are not repair-eligible in v1)");

  // The load-balancing relabel: shared-seed, equivalent to broadcasting
  // it, and charged as such. `balance` stays empty when none applies.
  std::vector<index_t> balance;
  sparse::CsrMatrix relabeled;
  const sparse::CsrMatrix* work = &a;
  if (options.load_balance && n > 0) {
    mps::PhaseScope scope(world, mps::Phase::kOther);
    balance = sparse::random_permutation(n, options.seed);
    relabeled = sparse::permute_symmetric(a, balance);
    work = &relabeled;
    world.charge_compute(static_cast<double>(a.nnz() + a.n()));
  }

  DistRcmStats local_stats;
  std::vector<index_t> global;
  if (resolved.ordering.algorithm == OrderingAlgorithm::kGps) {
    global = gps_replicated(world, *work);
  } else {
    // Start the block build in lockstep. Measured with perfbench on a
    // 4-core host: without this barrier order_wide's pass p90 rises from
    // ~11.6 to ~16.6 ms (p50 unchanged); a barrier before the self-loop
    // scan does not help.
    world.barrier();
    dist::DistDenseVec labels =
        resolved.ordering.algorithm == OrderingAlgorithm::kSloan
            ? dist_sloan_levels(grid, *work, resolved, local_stats)
            : dist_rcm_levels(grid, *work, resolved, local_stats, recipe);
    // Replicate.
    mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
    global = labels.to_global(world);
  }
  local_stats.algorithm = resolved.ordering.algorithm;

  // Map back through the load-balancing permutation: the label of original
  // vertex v is the label its relabeled alias balance[v] received.
  if (!balance.empty()) {
    mps::PhaseScope scope(world, mps::Phase::kOther);
    std::vector<index_t> original(static_cast<std::size_t>(n));
    for (index_t v = 0; v < n; ++v) {
      original[static_cast<std::size_t>(v)] =
          global[static_cast<std::size_t>(balance[static_cast<std::size_t>(v)])];
    }
    global = std::move(original);
    world.charge_compute(static_cast<double>(n));
  }

  if (stats) *stats = local_stats;
  return global;
}

RepairPlan plan_repair(const OrderingRecipe& recipe,
                       const std::vector<index_t>& cached_labels,
                       const std::vector<std::pair<index_t, index_t>>&
                           changed_rows,
                       index_t n) {
  RepairPlan plan;
  const auto ncomp = recipe.components.size();
  if (ncomp == 0 || cached_labels.size() != static_cast<std::size_t>(n)) {
    return plan;  // nothing to repair against
  }
  plan.components.resize(ncomp);

  // Component lookup by CM label: components tile [0, n) in discovery
  // order, so their lo() values are ascending.
  std::vector<index_t> comp_lo(ncomp);
  for (std::size_t k = 0; k < ncomp; ++k) {
    comp_lo[k] = recipe.components[k].lo();
  }

  // Shallowest affected BFS level per component (kNoVertex = untouched).
  std::vector<index_t> min_level(ncomp, kNoVertex);
  for (const auto& [lo, hi] : changed_rows) {
    DRCM_CHECK(0 <= lo && lo <= hi && hi <= n, "changed row range out of range");
    for (index_t v = lo; v < hi; ++v) {
      const index_t cm = n - 1 - cached_labels[static_cast<std::size_t>(v)];
      const auto k = static_cast<std::size_t>(
          std::upper_bound(comp_lo.begin(), comp_lo.end(), cm) -
          comp_lo.begin() - 1);
      const auto& starts = recipe.components[k].level_starts;
      const auto level = static_cast<index_t>(
          std::upper_bound(starts.begin(), starts.end(), cm) -
          starts.begin() - 1);
      if (min_level[k] == kNoVertex || level < min_level[k]) {
        min_level[k] = level;
      }
    }
  }

  // Crossing arithmetic against the speculative cold run (see header).
  // A BFS sweep of eccentricity L costs 2L + 3 crossings, a CM labeling
  // run of L levels below its root 3L + 2, an argmin 1. Per component with
  // k recorded sweeps and root eccentricity L, cold pays the seed argmin,
  // the first sweep plainly, every later sweep as a CM run, k - 1 (k = 1:
  // one) candidate argmins, and — when k = 1 — a separate CM run from the
  // root. Eccentricities of sweeps other than the root's are not recorded,
  // so they count as 0: every bound below is a lower bound on cold minus
  // repair. k = 0 (not recorded) is priced like k = 2, the smaller bound.
  const auto bfs_run = [](index_t below) { return 2 * below + 3; };
  const auto cm_run = [](index_t below) { return 3 * below + 2; };
  constexpr index_t kAllreduce = 1;
  for (std::size_t k = 0; k < ncomp; ++k) {
    auto& cp = plan.components[k];
    const auto& cr = recipe.components[k];
    const index_t ecc = cr.levels() - 1;
    const bool one_sweep = cr.sweeps == 1;
    const index_t sweeps = std::max(2, cr.sweeps);
    if (min_level[k] == kNoVertex) {
      // Reuse pays only the seed argmin; cold pays the whole component.
      cp.action = RepairAction::kReuse;
      const index_t cold =
          one_sweep ? kAllreduce + bfs_run(ecc) + kAllreduce + cm_run(ecc)
                    : kAllreduce + bfs_run(0) + kAllreduce * (sweeps - 1) +
                          (sweeps - 2) * cm_run(0) + cm_run(ecc);
      plan.crossing_margin += cold - kAllreduce;
      continue;
    }
    // A cone re-runs the search with plain sweeps, then gathers the
    // level-(d-1) column frontier (2 crossings), runs the levels from
    // cone_level on, then the membership allreduce. Against cold it saves
    // the CM levels above the cone but sweeps the root plainly on top
    // (one-sweep components pay that sweep in cold too). Cold's other
    // speculative sweeps cost L - 1 >= 0 more than the cone's plain ones;
    // they count as 0.
    const index_t d = min_level[k];
    const index_t cone = 2 + cm_run(ecc - d + 1) + kAllreduce;
    const index_t cone_margin = one_sweep ? cm_run(ecc) - cone
                                          : cm_run(ecc) - bfs_run(ecc) - cone;
    // A recompute runs cold's own speculative routine plus the membership
    // allreduce. A cone is chosen only when it is the cheaper of the two.
    constexpr index_t kRecomputeMargin = -kAllreduce;
    if (d >= 2 && cone_margin > kRecomputeMargin) {
      cp.action = RepairAction::kCone;
      cp.cone_level = d;
      plan.level_steps_skipped += d - 1;
      plan.crossing_margin += cone_margin;
    } else {
      cp.action = RepairAction::kRecompute;
      plan.crossing_margin += kRecomputeMargin;
    }
  }
  plan.profitable = plan.crossing_margin > 0;
  return plan;
}

RepairResult dist_rcm_repair(dist::ProcGrid2D& grid,
                             const sparse::CsrMatrix& a,
                             const std::vector<index_t>& cached_labels,
                             const OrderingRecipe& recipe,
                             const RepairPlan& plan,
                             const DistRcmOptions& options) {
  DRCM_CHECK(!options.load_balance,
             "repair requires an unbalanced ordering: the load-balance "
             "relabel would decouple the recipe numbering from the input");
  DRCM_CHECK(options.ordering.algorithm == OrderingAlgorithm::kRcm,
             "repair is RCM-only in v1: Sloan/GPS runs capture no recipe, "
             "so there is nothing sound to splice against");
  check_no_self_loops(grid.world(), a,
                      "dist_rcm_repair expects an adjacency pattern");
  const index_t n = a.n();
  DRCM_CHECK(cached_labels.size() == static_cast<std::size_t>(n),
             "cached labels must cover every vertex");
  DRCM_CHECK(plan.components.size() == recipe.components.size(),
             "repair plan must match the recipe it was built from");
  auto& world = grid.world();

  RepairResult out;
  if (n == 0) {
    out.ok = true;
    return out;
  }

  // The walk a cold run takes, on the delta'd pattern and its NEW degrees
  // (the ranking keys must be the new ones for bit-identity with cold).
  // Walk component k must be cached component k, or the walk ends early.
  ComponentWalk walk(grid, a);
  const auto& degrees = walk.degrees;
  auto& labels = walk.labels;

  // cached CM label of vertex v (the recipe's label space).
  const auto cm_cached = [&](index_t v) {
    return n - 1 - cached_labels[static_cast<std::size_t>(v)];
  };

  // Copies the cached CM labels of owned vertices whose cached label lies
  // in [lo, hi) — the splice of untouched levels. Local.
  const auto splice_cached = [&](index_t lo, index_t hi) {
    mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
    for (index_t g = labels.lo(); g < labels.hi(); ++g) {
      const index_t cm = cm_cached(g);
      if (cm >= lo && cm < hi) labels.set(g, cm);
    }
    world.charge_compute(static_cast<double>(labels.local_size()));
  };

  // True iff some vertex labeled into [comp_lo, comp_hi) does not belong
  // to that cached component — a pattern delta merged components, so the
  // cone (or recompute) absorbed foreign vertices and the splice is
  // unsound. Collective (one allreduce, charged to the ordering ledger —
  // repair's honesty tax).
  const auto membership_violated = [&](index_t comp_lo, index_t comp_hi) {
    mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
    index_t bad = 0;
    for (index_t g = labels.lo(); g < labels.hi(); ++g) {
      const index_t l = labels.get(g);
      if (l >= comp_lo && l < comp_hi) {
        const index_t cm = cm_cached(g);
        if (cm < comp_lo || cm >= comp_hi) bad = 1;
      }
    }
    world.charge_compute(static_cast<double>(labels.local_size()));
    return world.allreduce(
               bad, [](index_t x, index_t y) { return std::max(x, y); }) != 0;
  };

  std::size_t k = 0;
  walk.run(world, [&](index_t seed, index_t first_label) {
    DRCM_CHECK(k < recipe.components.size() &&
                   recipe.components[k].lo() == first_label,
               "recipe components must tile [0, n)");
    const auto& cr = recipe.components[k];
    const auto& cp = plan.components[k++];
    const index_t comp_lo = cr.lo();
    const index_t comp_hi = cr.hi();

    // The seed is the argmin a cold run performs, on the NEW degrees. If
    // it does not land in the expected cached component, the delta
    // reordered component discovery (a changed degree now wins the argmin)
    // and the whole cached label space is stale — fall back to cold.
    const index_t cm_seed = cm_cached(seed);
    if (cm_seed < comp_lo || cm_seed >= comp_hi) {
      out.reason = "component discovery order changed";
      return kNoVertex;
    }

    // A clean component whose seed matches needs no peripheral search: the
    // component's edges are untouched, so the search is a memoized
    // deterministic computation ending at the cached root. A planned
    // recompute runs cold's own routine (search + labels, speculative
    // under George-Liu). Everything else re-runs the search with plain
    // sweeps on the new pattern, exactly as cold would find the root.
    // (For a clean component the seed provably cannot differ once the
    // range check above passed — its degrees are unchanged, so the cached
    // winner still wins — but the degrade path below keeps repair honest
    // rather than trusting that proof at runtime.)
    RepairAction action = cp.action;
    ComponentRecipe ncr{seed, cr.root, cr.sweeps, {}};
    index_t next_label = comp_lo;
    bool searched = false;  // labels still to write from ncr.root
    if (action == RepairAction::kRecompute) {
      const auto comp = dist_order_component(
          walk.mat, degrees, labels, seed, comp_lo, grid,
          options.ordering.peripheral_mode, &ncr.level_starts);
      ncr.root = comp.root;
      ncr.sweeps = comp.sweeps;
      next_label = comp.next_label;
    } else if (!(action == RepairAction::kReuse && seed == cr.seed)) {
      const auto peripheral =
          dist_pseudo_peripheral(walk.mat, degrees, seed, grid,
                                 options.ordering.peripheral_mode);
      ncr.root = peripheral.vertex;
      ncr.sweeps = peripheral.bfs_sweeps;
      if (ncr.root != cr.root) {
        // The delta moved the peripheral root: cached levels are the
        // wrong BFS tree, so this component recomputes from the new root
        // (still bit-identical to cold, which would do the same). A
        // different seed with the same root on an untouched component
        // keeps the level structure, so the splice still applies.
        action = RepairAction::kRecompute;
        searched = true;
      }
    }

    if (action == RepairAction::kReuse) {
      splice_cached(comp_lo, comp_hi);
      ncr.level_starts = cr.level_starts;
      out.reused += 1;
    } else if (action == RepairAction::kCone) {
      const index_t d = cp.cone_level;
      DRCM_CHECK(d >= 2 && d < cr.levels(),
                 "cone level must leave at least the root level cached "
                 "and at least one level to re-run");
      // Splice levels < d from the cache, rebuild the level-(d-1)
      // frontier from the spliced labels, and resume the fused ordering
      // loop mid-flight — the cone-restricted entry point.
      splice_cached(comp_lo, cr.level_starts[static_cast<std::size_t>(d)]);
      const index_t flo = cr.level_starts[static_cast<std::size_t>(d - 1)];
      const index_t fhi = cr.level_starts[static_cast<std::size_t>(d)];
      auto frontier = dist::frontier_from_label_range(
          labels, flo, fhi, grid, mps::Phase::kOrderingOther);
      std::vector<index_t> cone_starts;
      next_label = dist_cm_cone(walk.mat, degrees, labels, std::move(frontier),
                                fhi - flo, fhi, grid, &cone_starts,
                                /*label_cap=*/comp_hi)
                       .next_label;
      if (next_label != comp_hi) {
        out.reason = next_label > comp_hi
                         ? "cone escaped its component (pattern merge)"
                         : "cone exhausted early (pattern split)";
        return kNoVertex;
      }
      if (membership_violated(comp_lo, comp_hi)) {
        out.reason = "cone absorbed foreign vertices (pattern merge)";
        return kNoVertex;
      }
      ncr.level_starts.assign(cr.level_starts.begin(),
                              cr.level_starts.begin() + d);
      ncr.level_starts.insert(ncr.level_starts.end(), cone_starts.begin(),
                              cone_starts.end());
      ncr.level_starts.push_back(comp_hi);
      out.coned += 1;
      out.level_steps_skipped += d - 1;
    } else {
      if (searched) {
        next_label = dist_cm_component(walk.mat, degrees, labels, ncr.root,
                                       comp_lo, grid, &ncr.level_starts)
                         .next_label;
      }
      if (next_label != comp_hi) {
        out.reason = "recomputed component changed size (split or merge)";
        return kNoVertex;
      }
      if (cp.action != RepairAction::kReuse &&
          membership_violated(comp_lo, comp_hi)) {
        out.reason = "recomputed component absorbed foreign vertices";
        return kNoVertex;
      }
      ncr.level_starts.push_back(comp_hi);
      out.recomputed += 1;
    }
    out.recipe.components.push_back(std::move(ncr));
    return comp_hi;
  });
  if (!out.reason.empty()) return out;
  DRCM_CHECK(k == recipe.components.size(), "repair must label every vertex");

  // Reverse, then replicate — the same tail as the cold path, charged to
  // the same phases.
  reverse_labels(world, labels, n);
  {
    mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
    out.labels = labels.to_global(world);
  }
  out.ok = true;
  return out;
}

std::string permutation_error(const std::vector<index_t>& labels, index_t n) {
  if (labels.size() != static_cast<std::size_t>(n)) {
    return std::to_string(labels.size()) + " labels for n=" +
           std::to_string(n);
  }
  if (!sparse::is_valid_permutation(labels)) {
    return "labels are not a permutation of [0, n)";
  }
  return {};
}

namespace {

/// Per-rank resident budget of the one-shot pipeline: O(nnz/p + n/p).
/// Terms, largest first: this rank's balanced-2D input block consumed as
/// coordinate triples plus its staged sends (6 nnz/p), the received 1D
/// triples alongside them during the exchange (~3 nnz/p), the rebuilt row
/// block and the split solver system (~8 nnz/p), rhs/solution/recurrence
/// slabs and the halo (O(n/p) each). The constants are deliberately loose
/// — 2D block skew before the load-balancing relabel, halo width — but the
/// formula contains NO O(n) or O(nnz/q) term: that absence is the contract
/// this budget enforces. (The replicated pre-distribution fixtures and the
/// replicated labels live OUTSIDE the ledger.)
std::uint64_t resident_budget(nnz_t nnz, int p, index_t n) {
  return 24 * static_cast<std::uint64_t>(nnz) / static_cast<std::uint64_t>(p) +
         48 * static_cast<std::uint64_t>(n) / static_cast<std::uint64_t>(p) +
         4096;
}

/// The spec checks ordered_solve and the recoverable runner share. A matrix
/// with zero stored entries is vacuously valued: the degenerate n = 0 input
/// must flow through, not trip the precondition meant for pattern-only
/// matrices. Local.
void check_solve_spec(const OrderedSolveSpec& spec) {
  DRCM_CHECK(spec.matrix != nullptr, "ordered_solve needs a matrix");
  DRCM_CHECK(spec.matrix->has_values() || spec.matrix->nnz() == 0,
             "ordered_solve needs a solver matrix with values");
  DRCM_CHECK(spec.b.size() == static_cast<std::size_t>(spec.matrix->n()),
             "rhs size mismatch");
}

/// Stage 2 of the pipeline: route every relabeled entry of this rank's
/// balanced-2D block straight to its 1D solver owner in one alltoallv.
/// Collective; `labels` is the stage-1 output. The kRedistribute crossing
/// count is exactly the redistribution traffic (alltoallv + bandwidth
/// allreduce = 2 crossings): the caller's grid was built without a
/// collective.
dist::OneShotRowBlocks redistribute_stage(dist::ProcGrid2D& grid,
                                          const sparse::CsrMatrix& a,
                                          const std::vector<index_t>& labels) {
  mps::PhaseScope scope(grid.world(), mps::Phase::kRedistribute);
  return dist::redistribute_to_row_blocks(a, labels, grid);
}

/// This rank's O(n/p) window of the pre-distribution rhs fixture, as the
/// 2D-distributed vector the rhs routes read.
dist::DistDenseVecD rhs_window(dist::ProcGrid2D& grid,
                               std::span<const double> b) {
  const auto n = static_cast<index_t>(b.size());
  dist::DistDenseVecD b_dist(dist::VectorDist(n, grid.q()), grid, 0.0);
  for (index_t g = b_dist.lo(); g < b_dist.hi(); ++g) {
    b_dist.set(g, b[static_cast<std::size_t>(g)]);
  }
  grid.world().charge_compute(static_cast<double>(b_dist.local_size()));
  return b_dist;
}

/// The rhs half of stage 2: my window of the rhs, permuted and re-owned by
/// the same routing rule as the matrix, fixture -> O(n/p) 2D slab -> one
/// alltoallv -> O(n/p) solver slab. `held` is what the caller keeps live
/// alongside (its row block); `slot_out` as in redistribute_to_row_slab.
/// The grid's workspace stages the exchange, so repeat solves on a
/// persistent grid reallocate nothing. Collective.
std::vector<double> route_rhs(dist::ProcGrid2D& grid,
                              const std::vector<index_t>& labels,
                              std::span<const double> b, std::uint64_t held,
                              std::vector<index_t>* slot_out) {
  auto& world = grid.world();
  mps::PhaseScope scope(world, mps::Phase::kRedistribute);
  const auto b_dist = rhs_window(grid, b);
  auto b_local = dist::redistribute_to_row_slab(b_dist, labels, world,
                                                &grid.workspace(), slot_out);
  world.note_resident(held +
                      4 * static_cast<std::uint64_t>(b_dist.local_size()) +
                      4 * b_local.size() + (slot_out ? slot_out->size() : 0));
  return b_local;
}

/// Stage 3 of the launcher: route the rhs, then solve on the
/// checkpointed stage-2 row block of this rank (dist_pcg builds its plan
/// from the block). The solution never leaves slab form inside the SPMD
/// body. Collective; `labels` is the stage-1 output.
OrderedSolveResult solve_stage(dist::ProcGrid2D& grid,
                               const dist::RowBlockCsr& block,
                               const std::vector<index_t>& labels,
                               const OrderedSolveSpec& spec) {
  const auto b_local =
      route_rhs(grid, labels, spec.b, block.resident_elements(), nullptr);
  OrderedSolveResult out;
  out.cg = solver::dist_pcg(grid.world(), block, b_local, out.x_local,
                            spec.precondition, spec.cg);
  return out;
}

/// The scalability contract every ordered solve ends on: the per-rank
/// resident peak stayed O(nnz/p + n/p).
void check_resident_budget(mps::Comm& world, const sparse::CsrMatrix& a) {
  const auto peak = world.stats().peak_resident_elements();
  DRCM_CHECK(peak <= resident_budget(a.nnz(), world.size(), a.n()),
             "ordered_solve per-rank resident peak exceeded O(nnz/p + n/p)");
}

/// Stages 2 and 3 of ordered_solve under the stage-1 `labels`, building
/// this rank's solve plan on the way, then the scalability contract,
/// O(nnz/p + n/p) end to end: the one-shot redistribution streams the
/// balanced-2D block straight into row blocks (no Θ(nnz/q) permuted-2D
/// intermediate), the rhs moves as O(n/p) slabs, and the solution stays a
/// slab — no O(n) replicated vector exists at ANY stage inside the ranks.
/// The numeric half then runs on the values the route delivered, exactly
/// as a plan hit runs it. Collective.
void redistribute_and_solve(dist::ProcGrid2D& grid,
                            const OrderedSolveSpec& spec,
                            const std::vector<index_t>& labels,
                            OrderedSolveResult& out) {
  auto& world = grid.world();
  const sparse::CsrMatrix& a = *spec.matrix;
  auto redist = redistribute_stage(grid, a, labels);
  std::vector<index_t> rhs_slot;
  const auto b_local =
      route_rhs(grid, labels, spec.b,
                redist.block.resident_elements() + redist.origin.size(),
                &rhs_slot);
  auto plan = solver::build_solve_plan(world, redist.block, redist.origin);
  plan.rhs_slot = std::move(rhs_slot);
  plan.bandwidth = redist.bandwidth;
  plan.window_digest = redist.window_digest;
  // The received values in arrival order — the numeric pass's input, as a
  // plan hit's value route delivers it. The block is not needed after.
  std::vector<double> values(redist.origin.size());
  for (std::size_t s = 0; s < values.size(); ++s) {
    values[static_cast<std::size_t>(redist.origin[s])] = redist.block.vals[s];
  }
  redist = {};
  out.cg = solver::solve_with_plan(world, plan, values, b_local, out.x_local,
                                   spec.precondition, spec.cg, values.size());
  out.permuted_bandwidth = plan.bandwidth;
  out.x_lo = plan.lo;
  if (spec.plan_out != nullptr) *spec.plan_out = std::move(plan);
  check_resident_budget(world, a);
}

/// The plan hit: stages 2 and 3 with the symbolic work skipped. Values
/// move one word each through the plan's receive-slot maps (no triple
/// route, no bandwidth allreduce, no halo-request alltoallv, no row sorts),
/// then the same numeric pass as a cold request. Collective.
void solve_on_plan_hit(dist::ProcGrid2D& grid, const OrderedSolveSpec& spec,
                       const solver::SolvePlan& plan,
                       OrderedSolveResult& out) {
  auto& world = grid.world();
  const sparse::CsrMatrix& a = *spec.matrix;
  DRCM_CHECK(plan.n == a.n() && plan.ranks == world.size(),
             "solve plan was built for another matrix size or world");
  std::vector<double> values, b_local;
  {
    mps::PhaseScope scope(world, mps::Phase::kRedistribute);
    values = dist::route_row_block_values(a, *spec.labels, grid);
    const auto b_dist = rhs_window(grid, spec.b);
    b_local = dist::route_to_row_slab(b_dist, *spec.labels, world,
                                      plan.rhs_slot, grid.workspace());
  }
  out.cg = solver::solve_with_plan(world, plan, values, b_local, out.x_local,
                                   spec.precondition, spec.cg, values.size());
  out.permuted_bandwidth = plan.bandwidth;
  out.x_lo = plan.lo;
  check_resident_budget(world, a);
}

}  // namespace

OrderedSolveResult ordered_solve(dist::ProcGrid2D& grid,
                                 const OrderedSolveSpec& spec) {
  check_solve_spec(spec);
  DRCM_CHECK(spec.plan == nullptr || spec.labels != nullptr,
             "a cached solve plan needs the labels it was built under");
  DRCM_CHECK(spec.plan == nullptr || spec.plan_out == nullptr,
             "a request reusing a solve plan builds none");
  const sparse::CsrMatrix& a = *spec.matrix;
  OrderedSolveResult out;
  if (spec.labels != nullptr) {
    // The ordering-cache HIT path: stage 1 skipped, redistribution runs
    // under the KNOWN labels. The skipped ordering phases only make the
    // per-rank contract easier to meet. `out.labels` stays EMPTY — the
    // caller already holds the labels (that is why it could skip stage 1),
    // and the no-gather body has no business replicating them again.
    const std::string bad = permutation_error(*spec.labels, a.n());
    DRCM_CHECK(bad.empty(), "ordered_solve known labels: " + bad);
    if (spec.plan != nullptr) {
      solve_on_plan_hit(grid, spec, *spec.plan, out);
    } else {
      redistribute_and_solve(grid, spec, *spec.labels, out);
    }
    return out;
  }
  // The ordering runs on the self-loop-free adjacency pattern. Callers
  // that know it (the launcher strips once outside the ranks) pass it in;
  // otherwise each rank strips its own transient copy. dist_order
  // dispatches on spec.rcm.ordering — the whole portfolio flows through
  // the one pipeline.
  out.labels = spec.adjacency
                   ? dist_order(grid, *spec.adjacency, spec.rcm, nullptr,
                                spec.recipe)
                   : dist_order(grid, a.strip_diagonal(), spec.rcm, nullptr,
                                spec.recipe);
  redistribute_and_solve(grid, spec, out.labels, out);
  return out;
}

OrderedSolveRecoverableRun run_ordered_solve_recoverable(
    int nranks, const OrderedSolveSpec& spec, const RecoveryOptions& recovery) {
  check_solve_spec(spec);
  const sparse::CsrMatrix& a = *spec.matrix;
  DRCM_CHECK(recovery.max_attempts >= 1, "need at least one attempt");
  DRCM_CHECK(spec.labels == nullptr,
             "the recoverable runner orders from scratch: known labels go "
             "through ordered_solve");
  DRCM_CHECK(spec.recipe == nullptr,
             "the recoverable runner captures no ordering recipe");
  DRCM_CHECK(spec.plan == nullptr && spec.plan_out == nullptr,
             "the recoverable runner neither reuses nor exports solve plans");
  const index_t n = a.n();
  DRCM_CHECK(dist::largest_square_grid(nranks) == nranks,
             "world size must be a perfect square");
  const std::uint64_t budget = resident_budget(a.nnz(), nranks, n);
  // The adjacency is stripped once outside the ranks when the caller did not
  // supply it.
  sparse::CsrMatrix stripped;
  if (!spec.adjacency) stripped = a.strip_diagonal();
  const sparse::CsrMatrix& adjacency =
      spec.adjacency ? *spec.adjacency : stripped;

  OrderedSolveRecoverableRun run;

  // Launches one stage as its own SPMD run, retrying from the current
  // checkpoints on failure. Two failure modes feed the same retry loop:
  // an exception out of the run (rank death, injected allocation failure,
  // watchdog timeout, a structural DRCM_CHECK tripped by a corrupted
  // payload) and a validation failure on the checkpointed output (silent
  // corruption that produced structurally plausible garbage). Faults are
  // one-shot, so a retry replays the stage on clean inputs.
  const auto run_stage = [&](const char* stage,
                             const std::function<void(mps::Comm&)>& body,
                             const std::function<std::string()>& validate) {
    for (int attempt = 1;; ++attempt) {
      mps::RunOptions options;
      options.machine = recovery.machine;
      options.faults = recovery.faults;
      options.watchdog_seconds = recovery.watchdog_seconds;
      mps::SpmdReport partial;
      options.report_on_error = &partial;

      std::string failure;
      std::exception_ptr error;
      ++run.runs;
      try {
        const auto report = mps::Runtime::run(
            nranks,
            [&](mps::Comm& world) {
              if (attempt > 1) {
                // Retry backoff, charged as modeled stall time so recovery
                // cost appears in the merged ledger.
                world.charge_stall(recovery.backoff_modeled_seconds *
                                   (attempt - 1));
              }
              body(world);
            },
            options);
        run.report.merge_from(report);
        DRCM_CHECK(report.max_peak_resident() <= budget,
                   "per-rank resident peak exceeded O(nnz/p + n/p)");
        failure = validate();
        if (failure.empty()) return;
      } catch (const std::exception& e) {
        if (!partial.ranks.empty()) run.report.merge_from(partial);
        failure = e.what();
        error = std::current_exception();
      }
      run.fault_log.push_back(std::string(stage) + " attempt " +
                              std::to_string(attempt) + ": " + failure);
      if (attempt >= recovery.max_attempts) {
        if (error) std::rethrow_exception(error);
        throw CheckError("ordered_solve " + std::string(stage) +
                         " stage failed validation after " +
                         std::to_string(attempt) + " attempts: " + failure);
      }
    }
  };

  // Stage 1: ordering — via dist_order, so the whole portfolio (RCM,
  // Sloan, GPS, auto) is recoverable. Checkpoint: the replicated labels.
  std::vector<index_t> labels;
  run_stage(
      "ordering",
      [&](mps::Comm& world) {
        dist::ProcGrid2D grid(world);
        auto result = dist_order(grid, adjacency, spec.rcm);
        if (world.rank() == 0) labels = std::move(result);
      },
      // A corrupted index payload that survived the run shows up here.
      [&] { return permutation_error(labels, n); });

  // Stage 2: redistribute. Checkpoint: one row block per rank (simulated
  // ranks share the address space, so the driver can hold them directly)
  // plus the permuted bandwidth.
  std::vector<dist::RowBlockCsr> blocks(static_cast<std::size_t>(nranks));
  index_t bandwidth = 0;
  run_stage(
      "redistribute",
      [&](mps::Comm& world) {
        dist::ProcGrid2D grid(world);
        auto result = redistribute_stage(grid, a, labels);
        blocks[static_cast<std::size_t>(world.rank())] =
            std::move(result.block);
        if (world.rank() == 0) bandwidth = result.bandwidth;
      },
      [&]() -> std::string {
        index_t rows = 0;
        nnz_t nnz = 0;
        index_t expect_lo = 0;
        for (const auto& blk : blocks) {
          if (blk.n != n || blk.lo != expect_lo || blk.hi < blk.lo) {
            return "redistribute produced a non-contiguous row partition";
          }
          expect_lo = blk.hi;
          rows += blk.local_rows();
          nnz += blk.local_nnz();
          for (const double v : blk.vals) {
            if (!std::isfinite(v)) {
              return "redistribute produced non-finite matrix values";
            }
          }
        }
        if (rows != n || expect_lo != n) {
          return "redistribute lost rows: covered " + std::to_string(rows) +
                 " of " + std::to_string(n);
        }
        if (nnz != a.nnz()) {
          return "redistribute lost entries: " + std::to_string(nnz) +
                 " of " + std::to_string(a.nnz());
        }
        return {};
      });

  // Stage 3: solve from the checkpointed blocks. kNanInf is the retryable
  // solver outcome (a poisoned recurrence); every other status is a
  // structured result the caller branches on. The per-rank solution slabs
  // are deposited like checkpoints; the replicated ORIGINAL-numbering x is
  // assembled outside the ranks.
  std::vector<std::vector<double>> slabs(static_cast<std::size_t>(nranks));
  run_stage(
      "solve",
      [&](mps::Comm& world) {
        dist::ProcGrid2D grid(world);
        auto result = solve_stage(
            grid, blocks[static_cast<std::size_t>(world.rank())], labels, spec);
        slabs[static_cast<std::size_t>(world.rank())] =
            std::move(result.x_local);
        if (world.rank() == 0) run.result.cg = result.cg;
      },
      [&]() -> std::string {
        if (run.result.cg.status == solver::SolveStatus::kNanInf) {
          return "solver reported nan-inf (poisoned recurrence)";
        }
        return {};
      });

  run.result.x = solver::assemble_solution(slabs, labels);
  run.result.x_local = std::move(slabs[0]);  // rank 0's own slab
  run.result.x_lo = 0;
  run.result.labels = std::move(labels);
  run.result.permuted_bandwidth = bandwidth;
  return run;
}

DistRcmRun run_dist_order(int nranks, const sparse::CsrMatrix& a,
                          const DistRcmOptions& options,
                          const mps::MachineParams& machine) {
  DistRcmRun run;
  run.report = mps::Runtime::run(
      nranks,
      [&](mps::Comm& world) {
        dist::ProcGrid2D grid(world);
        auto labels = dist_order(grid, a, options,
                                 world.rank() == 0 ? &run.stats : nullptr);
        if (world.rank() == 0) run.labels = std::move(labels);
      },
      machine);
  return run;
}

}  // namespace drcm::rcm
