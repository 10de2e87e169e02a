#include "rcm/rcm_driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>

#include "dist/level_kernel.hpp"
#include "dist/primitives.hpp"
#include "dist/redistribute.hpp"
#include "order/gps.hpp"
#include "order/sloan.hpp"
#include "rcm/dist_bfs.hpp"
#include "rcm/dist_peripheral.hpp"
#include "solver/dist_cg.hpp"
#include "sparse/permute.hpp"

namespace drcm::rcm {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("DRCM_THREADS")) {
    const int t = std::atoi(env);
    DRCM_CHECK(t >= 1, "DRCM_THREADS must be a positive thread count");
    return t;
  }
  return 1;
}

namespace {

/// Derives the load-balancing relabel (shared-seed, equivalent to
/// broadcasting it; charged as such) and repoints `work` at the relabeled
/// matrix. `balance` stays empty when no relabel applies.
void balance_input(mps::Comm& world, const sparse::CsrMatrix& a,
                   const DistRcmOptions& options, std::vector<index_t>& balance,
                   sparse::CsrMatrix& relabeled,
                   const sparse::CsrMatrix*& work) {
  work = &a;
  if (options.load_balance && a.n() > 0) {
    mps::PhaseScope scope(world, mps::Phase::kOther);
    balance = sparse::random_permutation(a.n(), options.seed);
    relabeled = sparse::permute_symmetric(a, balance);
    work = &relabeled;
    world.charge_compute(static_cast<double>(a.nnz() + a.n()));
  }
}

/// The distributed ordering proper: decompose `work` onto `grid`, run the
/// per-component peripheral search + CM labeling, reverse. Returns the
/// SHARDED label vector in the WORK numbering — O(n/p) per rank, never
/// replicated here; the callers decide whether to gather (dist_order) or
/// keep it distributed (dist_rcm_sharded).
dist::DistDenseVec dist_rcm_levels(mps::Comm& world, dist::ProcGrid2D& grid,
                                   const sparse::CsrMatrix& work,
                                   const DistRcmOptions& options,
                                   DistRcmStats* stats,
                                   OrderingRecipe* recipe = nullptr) {
  const index_t n = work.n();
  dist::DistSpMat mat(grid, work);
  dist::DistDenseVec degrees = mat.degrees(grid);
  dist::DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);

  DistRcmStats local_stats;
  index_t next_label = 0;
  while (next_label < n) {
    // Component seed: unvisited vertex of minimum degree, ties to id.
    index_t seed = kNoVertex;
    {
      mps::PhaseScope scope(world, mps::Phase::kPeripheralOther);
      seed = dist::argmin_unvisited(labels, degrees, world).second;
    }
    DRCM_CHECK(seed != kNoVertex, "unlabeled vertices must exist");
    const auto peripheral =
        dist_pseudo_peripheral(mat, degrees, seed, grid,
                               options.ordering.peripheral_mode);
    local_stats.components += 1;
    local_stats.peripheral_bfs_sweeps += peripheral.bfs_sweeps;
    local_stats.ordering_levels += peripheral.eccentricity + 1;
    ComponentRecipe cr;
    cr.seed = seed;
    cr.root = peripheral.vertex;
    next_label = dist_cm_component(mat, degrees, labels, peripheral.vertex,
                                   next_label, grid,
                                   recipe ? &cr.level_starts : nullptr);
    if (recipe) {
      cr.level_starts.push_back(next_label);  // one-past-the-end sentinel
      recipe->components.push_back(std::move(cr));
    }
  }

  // Reverse in place (RCM = reversed CM), still sharded.
  {
    mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
    for (index_t g = labels.lo(); g < labels.hi(); ++g) {
      labels.set(g, n - 1 - labels.get(g));
    }
    world.charge_compute(static_cast<double>(labels.local_size()));
  }

  if (stats) *stats = local_stats;
  return labels;
}

/// The kSloan arm: level-synchronous Sloan over the same fused level
/// kernel, bit-identical to order::sloan_levels (the serial twin). Per
/// component: distributed pseudo-peripheral s, REDUCE of s's last BFS
/// level to the end vertex e (min degree, ties id — the same rule serial
/// Sloan applies), one more BFS for distances to e, then CM-style level
/// expansion from s with the static Sloan key substituted for the degree
/// as the SORTPERM ranking key. No reversal (Sloan numbers front-to-back).
dist::DistDenseVec dist_sloan_levels(mps::Comm& world, dist::ProcGrid2D& grid,
                                     const sparse::CsrMatrix& work,
                                     const DistRcmOptions& options,
                                     DistRcmStats* stats) {
  const index_t n = work.n();
  dist::DistSpMat mat(grid, work);
  dist::DistDenseVec degrees = mat.degrees(grid);
  dist::DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);
  dist::DistDenseVec keys(mat.vec_dist(), grid, 0);
  dist::DistDenseVec levels(mat.vec_dist(), grid, kNoVertex);
  const order::SloanOptions weights{};  // w1 = 2, w2 = 1, as serial

  DistRcmStats local_stats;
  index_t next_label = 0;
  while (next_label < n) {
    index_t seed = kNoVertex;
    {
      mps::PhaseScope scope(world, mps::Phase::kPeripheralOther);
      seed = dist::argmin_unvisited(labels, degrees, world).second;
    }
    DRCM_CHECK(seed != kNoVertex, "unlabeled vertices must exist");
    const auto peripheral =
        dist_pseudo_peripheral(mat, degrees, seed, grid,
                               options.ordering.peripheral_mode);
    local_stats.components += 1;
    local_stats.peripheral_bfs_sweeps += peripheral.bfs_sweeps;
    local_stats.ordering_levels += peripheral.eccentricity + 1;
    const index_t s = peripheral.vertex;

    // Pseudo-diameter end vertex e: REDUCE(last level of s's BFS, D).
    auto bfs_s = dist_bfs(mat, s, levels, grid, mps::Phase::kPeripheralSpmspv,
                          mps::Phase::kPeripheralOther);
    index_t e = kNoVertex;
    {
      mps::PhaseScope scope(world, mps::Phase::kPeripheralOther);
      e = dist::reduce_argmin(bfs_s.last_frontier, degrees, world).second;
    }
    DRCM_CHECK(e != kNoVertex, "last BFS level cannot be empty");
    const auto bfs_e =
        dist_bfs(mat, e, levels, grid, mps::Phase::kPeripheralSpmspv,
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
    next_label = dist_cm_component(mat, keys, labels, s, next_label, grid);
  }
  if (stats) *stats = local_stats;
  return labels;  // no reversal
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

std::vector<index_t> dist_order(mps::Comm& world, const sparse::CsrMatrix& a,
                                const DistRcmOptions& options,
                                DistRcmStats* stats, OrderingRecipe* recipe) {
  DRCM_CHECK(!a.has_self_loops(),
             "dist_order expects an adjacency pattern (strip_diagonal first)");
  const index_t n = a.n();

  // Resolve kAuto BEFORE any collective: the selector is a deterministic
  // function of the replicated pattern, so every rank lands on the same
  // concrete arm without communicating.
  DistRcmOptions resolved = options;
  if (resolved.ordering.algorithm == OrderingAlgorithm::kAuto) {
    mps::PhaseScope scope(world, mps::Phase::kOther);
    resolved.ordering.algorithm = select_ordering(a).algorithm;
    world.charge_compute(static_cast<double>(a.nnz() + a.n()));
  }
  DRCM_CHECK(recipe == nullptr ||
                 resolved.ordering.algorithm == OrderingAlgorithm::kRcm,
             "ordering recipes are captured on the kRcm arm only "
             "(Sloan/GPS orderings are not repair-eligible in v1)");

  std::vector<index_t> balance;
  const sparse::CsrMatrix* work = nullptr;
  sparse::CsrMatrix relabeled;
  balance_input(world, a, resolved, balance, relabeled, work);

  DistRcmStats local_stats;
  std::vector<index_t> global;
  if (resolved.ordering.algorithm == OrderingAlgorithm::kGps) {
    global = gps_replicated(world, *work);
  } else {
    dist::ProcGrid2D grid(world);
    dist::DistDenseVec labels =
        resolved.ordering.algorithm == OrderingAlgorithm::kSloan
            ? dist_sloan_levels(world, grid, *work, resolved, &local_stats)
            : dist_rcm_levels(world, grid, *work, resolved, &local_stats,
                              recipe);
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

dist::DistDenseVec dist_rcm_sharded(mps::Comm& world, dist::ProcGrid2D& grid,
                                    const sparse::CsrMatrix& a,
                                    const DistRcmOptions& options,
                                    DistRcmStats* stats) {
  DRCM_CHECK(!a.has_self_loops(),
             "dist_rcm_sharded expects an adjacency pattern (strip_diagonal "
             "first)");
  const index_t n = a.n();

  std::vector<index_t> balance;
  const sparse::CsrMatrix* work = nullptr;
  sparse::CsrMatrix relabeled;
  balance_input(world, a, options, balance, relabeled, work);

  dist::DistDenseVec labels = dist_rcm_levels(world, grid, *work, options, stats);
  if (balance.empty()) return labels;

  // Map back through the load-balancing permutation WITHOUT replicating:
  // original vertex v's label lives on the owner of its alias balance[v],
  // and v's shard owner is arithmetic, so ONE alltoallv re-owns the whole
  // vector. (`balance` itself is a shared-seed pre-distribution fixture,
  // like the replicated input matrix — the ledger tracks pipeline state,
  // and the sharded result keeps that state O(n/p).)
  mps::PhaseScope scope(world, mps::Phase::kOther);
  const auto vdist = labels.dist();
  std::vector<std::vector<dist::VecEntry>> send(
      static_cast<std::size_t>(world.size()));
  for (index_t v = 0; v < n; ++v) {
    const index_t u = balance[static_cast<std::size_t>(v)];
    if (!labels.owns(u)) continue;
    send[static_cast<std::size_t>(vdist.owner_rank(v))].push_back(
        dist::VecEntry{v, labels.get(u)});
  }
  const auto recv = world.alltoallv(send);
  dist::DistDenseVec out(vdist, grid, kNoVertex);
  DRCM_CHECK(recv.size() == static_cast<std::size_t>(out.local_size()),
             "relabel re-owning must deliver every element exactly once");
  for (const auto& e : recv) {
    // Receive-path range check (always on): set() indexes the owned slab.
    DRCM_CHECK(out.owns(e.idx), "received label outside the owned range");
    out.set(e.idx, e.val);
  }
  world.charge_compute(static_cast<double>(n) +
                       static_cast<double>(recv.size()));
  world.note_resident(6 * static_cast<std::uint64_t>(out.local_size()));
  return out;
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

  // Crossing arithmetic (see header): a reused component skips at least
  // its peripheral search (>= 3 crossings) and terminal level step (3); a
  // cone skips 5 per non-terminal step but adds the 2-crossing membership
  // allreduce; a recompute only adds the membership allreduce.
  for (std::size_t k = 0; k < ncomp; ++k) {
    auto& cp = plan.components[k];
    if (min_level[k] == kNoVertex) {
      cp.action = RepairAction::kReuse;
      plan.crossing_margin += 6;
    } else if (min_level[k] >= 2) {
      cp.action = RepairAction::kCone;
      cp.cone_level = min_level[k];
      plan.level_steps_skipped += min_level[k] - 1;
      plan.crossing_margin += 5 * (min_level[k] - 1) - 2;
    } else {
      cp.action = RepairAction::kRecompute;
      plan.crossing_margin -= 2;
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
  DRCM_CHECK(!a.has_self_loops(),
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

  // Same decomposition a cold run pays for: the delta'd pattern on the
  // 2D grid plus its NEW degree vector (degrees of delta vertices changed;
  // the ranking keys must be the new ones for bit-identity with cold).
  dist::DistSpMat mat(grid, a);
  dist::DistDenseVec degrees = mat.degrees(grid);
  dist::DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);

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

  index_t next_label = 0;
  for (std::size_t k = 0; k < recipe.components.size(); ++k) {
    const auto& cr = recipe.components[k];
    const auto& cp = plan.components[k];
    const index_t comp_lo = cr.lo();
    const index_t comp_hi = cr.hi();
    DRCM_CHECK(comp_lo == next_label, "recipe components must tile [0, n)");

    // The seed argmin a cold run would perform, on the NEW degrees. If it
    // does not land in the expected cached component, the delta reordered
    // component discovery (a changed degree now wins the argmin) and the
    // whole cached label space is stale — fall back to cold.
    index_t seed = kNoVertex;
    {
      mps::PhaseScope scope(world, mps::Phase::kPeripheralOther);
      seed = dist::argmin_unvisited(labels, degrees, world).second;
    }
    DRCM_CHECK(seed != kNoVertex, "unlabeled vertices must exist");
    const index_t cm_seed = cm_cached(seed);
    if (cm_seed < comp_lo || cm_seed >= comp_hi) {
      out.reason = "component discovery order changed";
      return out;
    }

    // A clean component whose seed matches needs no peripheral search: the
    // component's edges are untouched, so the search is a memoized
    // deterministic computation ending at the cached root. Everything
    // else re-runs it on the new pattern, exactly like cold.
    // (For a clean component the seed provably cannot differ once the
    // range check above passed — its degrees are unchanged, so the cached
    // winner still wins — but the degrade path below keeps repair honest
    // rather than trusting that proof at runtime.)
    RepairAction action = cp.action;
    index_t root = cr.root;
    if (!(action == RepairAction::kReuse && seed == cr.seed)) {
      const auto peripheral =
          dist_pseudo_peripheral(mat, degrees, seed, grid,
                                 options.ordering.peripheral_mode);
      root = peripheral.vertex;
      if (root != cr.root) {
        // The delta moved the peripheral root: cached levels are the
        // wrong BFS tree, so this component recomputes from the new root
        // (still bit-identical to cold, which would do the same).
        action = RepairAction::kRecompute;
      } else if (action == RepairAction::kReuse) {
        // Different seed, same root on an untouched component: the level
        // structure is unchanged, the splice still applies.
      }
    }

    ComponentRecipe ncr;
    ncr.seed = seed;
    ncr.root = root;

    if (action == RepairAction::kReuse) {
      splice_cached(comp_lo, comp_hi);
      next_label = comp_hi;
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
      next_label = dist_cm_cone(mat, degrees, labels, std::move(frontier),
                                fhi - flo, fhi, grid, &cone_starts,
                                /*label_cap=*/comp_hi);
      if (next_label != comp_hi) {
        out.reason = next_label > comp_hi
                         ? "cone escaped its component (pattern merge)"
                         : "cone exhausted early (pattern split)";
        return out;
      }
      if (membership_violated(comp_lo, comp_hi)) {
        out.reason = "cone absorbed foreign vertices (pattern merge)";
        return out;
      }
      ncr.level_starts.assign(cr.level_starts.begin(),
                              cr.level_starts.begin() + d);
      ncr.level_starts.insert(ncr.level_starts.end(), cone_starts.begin(),
                              cone_starts.end());
      ncr.level_starts.push_back(comp_hi);
      out.coned += 1;
      out.level_steps_skipped += d - 1;
    } else {
      next_label = dist_cm_component(mat, degrees, labels, root, comp_lo,
                                     grid, &ncr.level_starts);
      if (next_label != comp_hi) {
        out.reason = "recomputed component changed size (split or merge)";
        return out;
      }
      if (cp.action != RepairAction::kReuse &&
          membership_violated(comp_lo, comp_hi)) {
        out.reason = "recomputed component absorbed foreign vertices";
        return out;
      }
      ncr.level_starts.push_back(comp_hi);
      out.recomputed += 1;
    }
    out.recipe.components.push_back(std::move(ncr));
  }
  DRCM_CHECK(next_label == n, "repair must label every vertex");

  // Reverse in place (RCM = reversed CM), then replicate — the same tail
  // as the cold path, charged to the same phases.
  {
    mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
    for (index_t g = labels.lo(); g < labels.hi(); ++g) {
      labels.set(g, n - 1 - labels.get(g));
    }
    world.charge_compute(static_cast<double>(labels.local_size()));
  }
  {
    mps::PhaseScope scope(world, mps::Phase::kOrderingOther);
    out.labels = labels.to_global(world);
  }
  out.ok = true;
  return out;
}

namespace {

/// Why `labels` cannot relabel an n-vertex matrix, or empty when it is a
/// permutation of [0, n). Checks the caller's known labels on the hit path
/// and the recoverable runner's ordering checkpoint. Local; no charge.
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

/// Per-rank resident budget of the one-shot pipeline: O(nnz/p + n/p).
/// Terms, largest first: this rank's balanced-2D input block consumed as
/// coordinate triples plus its staged sends (6 nnz/p), the received 1D
/// triples alongside them during the exchange (~3 nnz/p), the rebuilt row
/// block and the split solver system (~8 nnz/p), rhs/solution/recurrence
/// slabs and the halo (O(n/p) each). The constants are deliberately loose
/// — 2D block skew before the load-balancing relabel, halo width — but the
/// formula contains NO O(n) or O(nnz/q) term: that absence is the contract
/// this budget enforces. (The replicated pre-distribution fixtures — and,
/// on this replicated-label path, the labels — live OUTSIDE the ledger;
/// DistRcmOptions::sharded_labels moves the labels inside it too, under
/// the slightly wider sharded budget below.)
std::uint64_t resident_budget_one_shot(nnz_t nnz, int p, index_t n) {
  return 24 * static_cast<std::uint64_t>(nnz) / static_cast<std::uint64_t>(p) +
         48 * static_cast<std::uint64_t>(n) / static_cast<std::uint64_t>(p) +
         4096;
}

/// Budget of the sharded-label pipeline: the one-shot budget plus the
/// O(n/q) label windows (and their in-flight exchange doubles) the
/// two-sided relabel lookup holds during redistribution. Still no O(n)
/// term anywhere — with the labels sharded, the ledger now covers the
/// WHOLE pipeline state, replicated labels included.
std::uint64_t resident_budget_sharded(nnz_t nnz, int p, int q, index_t n) {
  return resident_budget_one_shot(nnz, p, n) +
         16 * static_cast<std::uint64_t>(n) / static_cast<std::uint64_t>(q);
}

std::uint64_t resident_budget(const DistRcmOptions& options, nnz_t nnz, int p,
                              int q, index_t n) {
  return options.sharded_labels ? resident_budget_sharded(nnz, p, q, n)
                                : resident_budget_one_shot(nnz, p, n);
}

/// Stage 2 of the pipeline: route every relabeled entry of this rank's
/// balanced-2D block straight to its 1D solver owner in one alltoallv.
/// Collective; `labels` is the stage-1 output, replicated or sharded. The
/// grid is built by the CALLER, outside the phase scope below: its two
/// Comm::split calls are collectives of their own, and keeping them out
/// pins the kRedistribute crossing count to exactly the redistribution
/// traffic (alltoallv + bandwidth allreduce = 4 crossings, plus the label
/// window alltoallv on the sharded arm).
template <class Labels>
dist::OneShotRowBlocks redistribute_stage(mps::Comm& world,
                                          dist::ProcGrid2D& grid,
                                          const sparse::CsrMatrix& a,
                                          const Labels& labels) {
  mps::PhaseScope scope(world, mps::Phase::kRedistribute);
  return dist::redistribute_to_row_blocks(a, labels, grid);
}

struct SolveOut {
  solver::CgResult cg;
  std::vector<double> x_local;  ///< this rank's slab, PERMUTED rows
};

/// Stage 3 of the pipeline: distribute the rhs, run the distributed
/// solver, return this rank's solution slab. The rhs goes fixture ->
/// O(n/p) 2D slab -> one alltoallv -> O(n/p) solver slab; the inverse
/// labeling scan and the replicated permuted rhs of the old path are gone,
/// and the solution never leaves slab form inside the SPMD body.
/// Collective; `block` is the checkpointed stage-2 row block of this rank,
/// `grid` the caller's (its workspace stages the rhs exchange, so repeat
/// solves on a persistent grid reallocate nothing), `labels` the stage-1
/// output, replicated or sharded.
template <class Labels>
SolveOut solve_stage(mps::Comm& world, dist::ProcGrid2D& grid, index_t n,
                     const dist::RowBlockCsr& block, const Labels& labels,
                     std::span<const double> b, bool precondition,
                     const solver::CgOptions& cg_options) {
  std::vector<double> b_local;
  {
    mps::PhaseScope scope(world, mps::Phase::kRedistribute);
    // My arithmetic O(n/p) window of the pre-distribution rhs fixture,
    // permuted and re-owned by the same routing rule as the matrix.
    dist::DistDenseVecD b_dist(dist::VectorDist(n, grid.q()), grid, 0.0);
    for (index_t g = b_dist.lo(); g < b_dist.hi(); ++g) {
      b_dist.set(g, b[static_cast<std::size_t>(g)]);
    }
    world.charge_compute(static_cast<double>(b_dist.local_size()));
    b_local = dist::redistribute_to_row_slab(b_dist, labels, world,
                                             &grid.workspace());
    world.note_resident(block.resident_elements() +
                        4 * static_cast<std::uint64_t>(b_dist.local_size()) +
                        4 * b_local.size());
  }

  SolveOut out;
  out.cg = solver::dist_pcg(world, block, b_local, out.x_local, precondition,
                            cg_options);
  return out;
}

/// Stages 2 and 3 of ordered_solve under the stage-1 `labels` (replicated
/// or sharded), then the scalability contract, O(nnz/p + n/p) end to end:
/// the one-shot redistribution streams the balanced-2D block straight into
/// row blocks (no Θ(nnz/q) permuted-2D intermediate), the rhs moves as
/// O(n/p) slabs, and the solution stays a slab — no O(n) replicated vector
/// exists at ANY stage inside the ranks. Collective.
template <class Labels>
void redistribute_and_solve(dist::ProcGrid2D& grid,
                            const OrderedSolveSpec& spec, const Labels& labels,
                            OrderedSolveResult& out) {
  auto& world = grid.world();
  const sparse::CsrMatrix& a = *spec.matrix;
  const auto redist = redistribute_stage(world, grid, a, labels);
  out.permuted_bandwidth = redist.bandwidth;
  auto solved = solve_stage(world, grid, a.n(), redist.block, labels, spec.b,
                            spec.precondition, spec.cg);
  out.cg = solved.cg;
  out.x_local = std::move(solved.x_local);
  out.x_lo = redist.block.lo;

  const auto peak = world.stats().peak_resident_elements();
  DRCM_CHECK(peak <= resident_budget(spec.rcm, a.nnz(), world.size(),
                                     grid.q(), a.n()),
             "ordered_solve per-rank resident peak exceeded O(nnz/p + n/p)");
}

/// Assembles the replicated ORIGINAL-numbering solution from the per-rank
/// permuted slabs, OUTSIDE the SPMD ranks (the driver holds the slabs like
/// any other checkpoint, so no rank's ledger pays for the O(n) copy). The
/// row blocks are contiguous, so rank-order concatenation IS the permuted
/// vector; then x[v] = x_perm[labels[v]].
std::vector<double> assemble_solution(
    const std::vector<std::vector<double>>& slabs,
    const std::vector<index_t>& labels) {
  std::vector<double> x_perm;
  x_perm.reserve(labels.size());
  for (const auto& slab : slabs) {
    x_perm.insert(x_perm.end(), slab.begin(), slab.end());
  }
  DRCM_CHECK(x_perm.size() == labels.size(),
             "solution slabs must cover every permuted row exactly once");
  std::vector<double> x(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    x[v] = x_perm[static_cast<std::size_t>(labels[v])];
  }
  return x;
}

}  // namespace

OrderedSolveResult ordered_solve(dist::ProcGrid2D& grid,
                                 const OrderedSolveSpec& spec) {
  DRCM_CHECK(spec.matrix != nullptr, "ordered_solve needs a matrix");
  const sparse::CsrMatrix& a = *spec.matrix;
  // A matrix with zero stored entries is vacuously valued: the degenerate
  // n = 0 input must flow through, not trip the precondition meant for
  // pattern-only matrices.
  DRCM_CHECK(a.has_values() || a.nnz() == 0,
             "ordered_solve needs a solver matrix with values");
  DRCM_CHECK(spec.b.size() == static_cast<std::size_t>(a.n()),
             "rhs size mismatch");
  const index_t n = a.n();
  auto& world = grid.world();
  const DistRcmOptions& rcm_options = spec.rcm;

  OrderedSolveResult out;

  if (spec.labels != nullptr) {
    // The ordering-cache HIT path: stage 1 skipped, redistribution runs
    // under the KNOWN labels. The skipped ordering phases only make the
    // per-rank contract easier to meet. `out.labels` stays EMPTY — the
    // caller already holds the labels (that is why it could skip stage 1),
    // and the no-gather body has no business replicating them again.
    const std::string bad = permutation_error(*spec.labels, n);
    DRCM_CHECK(bad.empty(), "ordered_solve known labels: " + bad);
    DRCM_CHECK(!rcm_options.sharded_labels,
               "the hit path takes replicated labels");
    redistribute_and_solve(grid, spec, *spec.labels, out);
  } else if (rcm_options.sharded_labels) {
    // Fully sharded arm: the label vector never exists replicated inside
    // the pipeline — ordering returns an O(n/p) slab, redistribution does
    // the two-sided window lookup, the rhs relabel is a local slab read.
    // RCM-only in v1: dist_rcm_sharded is the only sharded ordering body,
    // so a portfolio request must resolve to kRcm to take this arm.
    DRCM_CHECK(spec.recipe == nullptr,
               "recipe capture requires the replicated-label arm");
    {
      OrderingSpec resolved = rcm_options.ordering;
      if (resolved.algorithm == OrderingAlgorithm::kAuto) {
        mps::PhaseScope scope(world, mps::Phase::kOther);
        resolved.algorithm =
            select_ordering(spec.adjacency ? *spec.adjacency : a).algorithm;
        world.charge_compute(static_cast<double>(a.nnz() + a.n()));
      }
      DRCM_CHECK(resolved.algorithm == OrderingAlgorithm::kRcm,
                 "sharded labels are RCM-only in v1 (Sloan/GPS arms return "
                 "replicated labels)");
    }
    const dist::DistDenseVec labels =
        spec.adjacency
            ? dist_rcm_sharded(world, grid, *spec.adjacency, rcm_options)
            : dist_rcm_sharded(world, grid, a.strip_diagonal(), rcm_options);
    redistribute_and_solve(grid, spec, labels, out);

    // Result packaging for the caller's checkpoint/cache, AFTER the
    // contract was asserted (exactly like the run_* wrappers' replicated
    // x): with labels sharded, no O(n) structure existed at any point of
    // the pipeline.
    mps::PhaseScope scope(world, mps::Phase::kOther);
    out.labels = labels.to_global(world);
  } else {
    // The ordering runs on the self-loop-free adjacency pattern. Callers
    // that know it (run_ordered_solve strips once outside the ranks) pass
    // it in; otherwise each rank strips its own transient copy. dist_order
    // dispatches on spec.rcm.ordering — the whole portfolio flows through
    // the one pipeline.
    out.labels = spec.adjacency
                     ? dist_order(world, *spec.adjacency, rcm_options,
                                  nullptr, spec.recipe)
                     : dist_order(world, a.strip_diagonal(), rcm_options,
                                  nullptr, spec.recipe);
    redistribute_and_solve(grid, spec, out.labels, out);
  }
  return out;
}

OrderedSolveRun run_ordered_solve(int nranks, const sparse::CsrMatrix& a,
                                  std::span<const double> b, bool precondition,
                                  const DistRcmOptions& rcm_options,
                                  const solver::CgOptions& cg_options,
                                  const mps::MachineParams& machine) {
  // Strip the adjacency pattern ONCE outside the ranks: simulated ranks
  // share an address space, and p transient O(nnz) copies would otherwise
  // be built concurrently inside the bodies.
  const auto adjacency = a.strip_diagonal();
  OrderedSolveSpec spec;
  spec.matrix = &a;
  spec.b = b;
  spec.precondition = precondition;
  spec.rcm = rcm_options;
  spec.cg = cg_options;
  spec.adjacency = &adjacency;
  OrderedSolveRun run;
  // Per-rank solution slabs, deposited like checkpoints: the replicated
  // ORIGINAL-numbering x is assembled OUTSIDE the SPMD run, so no rank's
  // resident ledger ever holds an O(n) value vector.
  std::vector<std::vector<double>> slabs(static_cast<std::size_t>(nranks));
  run.report = mps::Runtime::run(
      nranks,
      [&](mps::Comm& world) {
        dist::ProcGrid2D grid(world);
        auto result = ordered_solve(grid, spec);
        slabs[static_cast<std::size_t>(world.rank())] =
            std::move(result.x_local);
        if (world.rank() == 0) run.result = std::move(result);
      },
      machine, resolve_threads(rcm_options.threads));
  run.result.x = assemble_solution(slabs, run.result.labels);
  run.result.x_local = std::move(slabs[0]);  // rank 0's own slab, restored
  return run;
}

OrderedSolveRecoverableRun run_ordered_solve_recoverable(
    int nranks, const OrderedSolveSpec& spec, const RecoveryOptions& recovery) {
  DRCM_CHECK(spec.matrix != nullptr, "ordered_solve needs a matrix");
  const sparse::CsrMatrix& a = *spec.matrix;
  const std::span<const double> b = spec.b;
  const bool precondition = spec.precondition;
  const DistRcmOptions& rcm_options = spec.rcm;
  const solver::CgOptions& cg_options = spec.cg;
  DRCM_CHECK(a.has_values() || a.nnz() == 0,
             "ordered_solve needs a solver matrix with values");
  DRCM_CHECK(b.size() == static_cast<std::size_t>(a.n()), "rhs size mismatch");
  DRCM_CHECK(recovery.max_attempts >= 1, "need at least one attempt");
  DRCM_CHECK(spec.labels == nullptr,
             "the recoverable runner orders from scratch: known labels go "
             "through ordered_solve");
  DRCM_CHECK(spec.recipe == nullptr,
             "the recoverable runner captures no ordering recipe");
  const index_t n = a.n();
  const int q = static_cast<int>(std::lround(std::sqrt(nranks)));
  DRCM_CHECK(q * q == nranks, "world size must be a perfect square");
  const std::uint64_t budget = resident_budget(rcm_options, a.nnz(), nranks, q, n);
  const int threads = resolve_threads(rcm_options.threads);
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
      options.threads_per_rank = threads;
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
        auto result = dist_order(world, adjacency, rcm_options);
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
        auto result = redistribute_stage(world, grid, a, labels);
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
        auto result =
            solve_stage(world, grid, n,
                        blocks[static_cast<std::size_t>(world.rank())], labels,
                        b, precondition, cg_options);
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

  run.result.x = assemble_solution(slabs, labels);
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
        DistRcmStats stats;
        auto labels = dist_order(world, a, options, &stats);
        if (world.rank() == 0) {
          run.labels = std::move(labels);
          run.stats = stats;
        }
      },
      machine, resolve_threads(options.threads));
  return run;
}

}  // namespace drcm::rcm
