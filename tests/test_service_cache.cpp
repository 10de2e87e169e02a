// The ordering cache of the reordering service: correctness of the hit
// path, collision resistance of the fingerprint, fault hygiene of the
// cache, and the steady-state zero-work contracts of a long stream.
//
//  * a repeat pattern HITS, skips every ordering collective (the ledger
//    says exactly zero ordering-phase crossings), and still produces a
//    solution bit-identical to the cold run and to the launcher;
//  * a hit serves a DIFFERENT rhs correctly (the cache keys the pattern,
//    not the problem);
//  * same-shape different-pattern requests MUST miss (n and nnz equal,
//    structure different), and ordering-salient options salt the key;
//  * a mid-solve rank death returns a structured kFault and never leaves
//    a poisoned cache entry behind;
//  * a 50-request stream of one pattern runs with zero workspace
//    reallocations and zero ordering crossings from request 3 on;
//  * eviction is cost/recency-weighted (an expensive ordering survives
//    cheap churn), an ordering-irrelevant seed does not split the key,
//    and unsorted CSR input is rejected before it can be fingerprinted;
//  * a hit reuses the entry's solve plan with the REQUEST's values: same
//    pattern, new values solves bit-identically to the one-call pipeline,
//    and a lane of another width rebuilds the plan and still matches;
//  * the plan guard: every rank rejects a plan together when any rank's
//    input window differs from the one its plan was routed from, and a
//    corrupted value exchange on a plan hit ends structured, leaving the
//    entry and its plan intact.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "dist/proc_grid.hpp"
#include "mpsim/fault.hpp"
#include "rcm/rcm_driver.hpp"
#include "service/service.hpp"
#include "sparse/generators.hpp"

namespace drcm::service {
namespace {

namespace gen = sparse::gen;

std::vector<double> wavy_rhs(index_t n, unsigned salt = 0) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] =
        1.0 +
        0.5 * static_cast<double>(((i + salt) * 2654435761u) % 1000) / 1000.0;
  }
  return b;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "component " << i;
  }
}

TEST(ServiceCache, RepeatPatternHitsAndSolvesBitIdentically) {
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(16, 16), 5), 0.02);
  const auto b = wavy_rhs(m.n());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest request;
  request.matrix = &m;
  request.b = b;

  const auto cold = service.submit(request);
  ASSERT_EQ(cold.status, RequestStatus::kOk);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.ordering_crossings, 0u);

  const auto warm = service.submit(request);
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.ordering_crossings, 0u)
      << "a cache hit must skip every ordering collective";
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(warm.permuted_bandwidth, cold.permuted_bandwidth);
  EXPECT_EQ(warm.cg.iterations, cold.cg.iterations);
  expect_bitwise_equal(warm.x, cold.x);

  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.cache_misses(), 1u);
  EXPECT_EQ(service.cache_size(), 1u);

  // Both must equal the one-call pipeline on the same four ranks.
  const auto reference =
      rcm::run_ordered_solve_recoverable(4, {.matrix = &m, .b = b});
  ASSERT_TRUE(reference.result.cg.converged);
  expect_bitwise_equal(cold.x, reference.result.x);

  // The ledgers are per request: the hit's report must show zero
  // crossings in all five ordering phases on every lane rank.
  for (const auto& rank : warm.report.ranks) {
    EXPECT_EQ(mps::ordering_crossings(rank), 0u);
  }
}

TEST(ServiceCache, HitServesADifferentRhsCorrectly) {
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(14, 15), 9), 0.02);
  const auto b1 = wavy_rhs(m.n(), 0);
  const auto b2 = wavy_rhs(m.n(), 77);

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest request;
  request.matrix = &m;
  request.b = b1;
  ASSERT_EQ(service.submit(request).status, RequestStatus::kOk);

  request.b = b2;
  const auto warm = service.submit(request);
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);

  const auto reference =
      rcm::run_ordered_solve_recoverable(4, {.matrix = &m, .b = b2});
  expect_bitwise_equal(warm.x, reference.result.x);
}

TEST(ServiceCache, SameShapeDifferentPatternMustMiss) {
  // Relabelings of one graph: identical n, identical nnz, different
  // structure. The structure hash must separate them — a false hit would
  // order matrix B with matrix A's labels and silently destroy the
  // bandwidth (or worse, the permutation property is the only thing the
  // solver would notice).
  const auto base = gen::grid2d(16, 16);
  const auto a = gen::with_laplacian_values(gen::relabel_random(base, 1), 0.02);
  const auto c = gen::with_laplacian_values(gen::relabel_random(base, 2), 0.02);
  ASSERT_EQ(a.n(), c.n());
  ASSERT_EQ(a.nnz(), c.nnz());
  const auto b = wavy_rhs(a.n());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest ra;
  ra.matrix = &a;
  ra.b = b;
  OrderSolveRequest rc;
  rc.matrix = &c;
  rc.b = b;

  const auto first = service.submit(ra);
  const auto second = service.submit(rc);
  ASSERT_EQ(first.status, RequestStatus::kOk);
  ASSERT_EQ(second.status, RequestStatus::kOk);
  EXPECT_FALSE(second.cache_hit)
      << "same (n, nnz) with different structure must not collide";
  EXPECT_NE(first.fingerprint.hash, second.fingerprint.hash);
  EXPECT_EQ(service.cache_misses(), 2u);

  // Ordering-salient options salt the key: the load-balanced ordering of
  // the SAME pattern is a different labeling, so it must miss too …
  OrderSolveRequest balanced = ra;
  balanced.rcm.load_balance = true;
  const auto third = service.submit(balanced);
  ASSERT_EQ(third.status, RequestStatus::kOk);
  EXPECT_FALSE(third.cache_hit);

  // … as must a different balance seed; but repeating the exact salted
  // configuration hits.
  OrderSolveRequest reseeded = balanced;
  reseeded.rcm.seed = balanced.rcm.seed + 1;
  EXPECT_FALSE(service.submit(reseeded).cache_hit);
  EXPECT_TRUE(service.submit(balanced).cache_hit);
}

TEST(ServiceCache, FaultNeverPoisonsTheCache) {
  const auto a = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(13, 14), 4), 0.02);
  const auto c = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(13, 14), 8), 0.02);
  const auto b = wavy_rhs(a.n());

  mps::FaultPlan plan;
  ServiceOptions options;
  options.ranks = 4;
  options.faults = &plan;
  options.watchdog_seconds = 20.0;
  ReorderingService service(options);

  OrderSolveRequest ra;
  ra.matrix = &a;
  ra.b = b;
  OrderSolveRequest rc;
  rc.matrix = &c;
  rc.b = b;

  ASSERT_EQ(service.submit(ra).status, RequestStatus::kOk);
  ASSERT_EQ(service.cache_size(), 1u);

  // Kill rank 1 mid-ordering of pattern C's first submission: collective 7
  // is the third BFS level of the peripheral search (after the lane split,
  // the fingerprint allreduce, the ordering's barrier before its block
  // build and the seed argmin). The request must come back as a
  // structured fault — and the cache must NOT have gained an entry for C.
  plan.die_at(1, 7);
  const auto killed = service.submit(rc);
  EXPECT_EQ(killed.status, RequestStatus::kFault);
  EXPECT_NE(killed.error.find("rank-death"), std::string::npos)
      << killed.error;
  EXPECT_EQ(service.cache_size(), 1u)
      << "a faulted request must not leave a cache entry";

  // The retry (fault spent) is a MISS, completes, and only then caches;
  // a fourth submission hits and matches the fault-free reference.
  const auto retried = service.submit(rc);
  ASSERT_EQ(retried.status, RequestStatus::kOk);
  EXPECT_FALSE(retried.cache_hit);
  EXPECT_EQ(service.cache_size(), 2u);

  const auto warm = service.submit(rc);
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);
  const auto reference =
      rcm::run_ordered_solve_recoverable(4, {.matrix = &c, .b = b});
  expect_bitwise_equal(warm.x, reference.result.x);
}

TEST(ServiceCache, SteadyStateStreamRunsWithoutReallocationOrOrderingWork) {
  // A 50-request stream of one pattern (rhs varies): request 1 is the cold
  // miss that sizes every buffer, request 2's checkouts DETECT the growth
  // request 1 performed (capacity deltas are recorded at the buffer's next
  // checkout — see DistWorkspace), and from request 3 on the service must
  // run allocation-free and ordering-free: zero workspace reallocations,
  // zero ordering crossings, every request a hit.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(12, 12), 6), 0.02);

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  std::uint64_t reallocs_after_warmup = 0;
  std::vector<double> x2;
  for (int k = 1; k <= 50; ++k) {
    const auto b = wavy_rhs(m.n(), static_cast<unsigned>(k % 3));
    OrderSolveRequest request;
    request.matrix = &m;
    request.b = b;
    const auto resp = service.submit(request);
    ASSERT_EQ(resp.status, RequestStatus::kOk) << "request " << k;
    if (k == 1) {
      EXPECT_FALSE(resp.cache_hit);
      continue;
    }
    EXPECT_TRUE(resp.cache_hit) << "request " << k;
    EXPECT_EQ(resp.ordering_crossings, 0u) << "request " << k;
    if (k == 2) {
      x2 = resp.x;
      reallocs_after_warmup = service.workspace_reallocations();
      continue;
    }
    EXPECT_EQ(resp.workspace_reallocations, 0u)
        << "request " << k << " reallocated in the steady state";
    // Same rhs cycle as request 2 -> bitwise the same solution.
    if (k % 3 == 2 % 3) expect_bitwise_equal(resp.x, x2);
  }
  EXPECT_EQ(service.workspace_reallocations(), reallocs_after_warmup)
      << "the workspace ledger must be flat from request 3 on";
  EXPECT_EQ(service.cache_hits(), 49u);
  EXPECT_EQ(service.cache_misses(), 1u);
}

TEST(ServiceCache, CostRecencyEvictionKeepsTheExpensiveEntry) {
  // Capacity 2 with cost/recency eviction: BIG's modeled ordering cost is
  // orders of magnitude above the small patterns', so when a third entry needs a
  // slot the victim is the cheap older entry — under the old FIFO policy
  // BIG (first in) would have been thrown away and recomputed.
  const auto big = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(48, 48), 1), 0.02);
  const auto s1 = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(6, 6), 2), 0.02);
  const auto s2 = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(6, 6), 3), 0.02);
  const auto b_big = wavy_rhs(big.n());
  const auto b_small = wavy_rhs(s1.n());

  ServiceOptions options;
  options.ranks = 4;
  options.cache_capacity = 2;
  options.enable_repair = false;  // isolate the eviction policy
  ReorderingService service(options);

  OrderSolveRequest rbig, rs1, rs2;
  rbig.matrix = &big;
  rbig.b = b_big;
  rs1.matrix = &s1;
  rs1.b = b_small;
  rs2.matrix = &s2;
  rs2.b = b_small;

  EXPECT_FALSE(service.submit(rbig).cache_hit);
  EXPECT_FALSE(service.submit(rs1).cache_hit);
  EXPECT_FALSE(service.submit(rs2).cache_hit);  // needs a slot
  EXPECT_EQ(service.cache_size(), 2u);
  EXPECT_TRUE(service.submit(rbig).cache_hit)
      << "the expensive ordering must survive the cheap churn";
  EXPECT_FALSE(service.submit(rs1).cache_hit)
      << "the cheap older entry was the cost/recency victim";

  ServiceOptions uncached = options;
  uncached.cache_capacity = 0;
  ReorderingService nocache(uncached);
  EXPECT_FALSE(nocache.submit(rs1).cache_hit);
  EXPECT_FALSE(nocache.submit(rs1).cache_hit);
  EXPECT_EQ(nocache.cache_size(), 0u);
}

TEST(ServiceCache, UnbalancedSeedIsNotSalient) {
  // Seed-salience audit (service/fingerprint.hpp): with load_balance off,
  // DistRcmOptions::seed never reaches the ordering — the peripheral
  // finder, CM levels and SORTPERM are seed-free deterministic. Two
  // differently-seeded unbalanced requests therefore compute the SAME
  // labeling and MUST share one cache slot; separate slots would just
  // recompute the identical ordering (the pre-audit behavior).
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(13, 13), 7), 0.02);
  const auto b = wavy_rhs(m.n());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest first;
  first.matrix = &m;
  first.b = b;
  first.rcm.seed = 123;
  const auto cold = service.submit(first);
  ASSERT_EQ(cold.status, RequestStatus::kOk);
  EXPECT_FALSE(cold.cache_hit);

  OrderSolveRequest reseeded = first;
  reseeded.rcm.seed = 456;
  const auto warm = service.submit(reseeded);
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  EXPECT_TRUE(warm.cache_hit)
      << "an ordering-irrelevant seed must not split the cache key";
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(service.cache_size(), 1u);
  expect_bitwise_equal(warm.x, cold.x);
}

TEST(ServiceCache, AlgorithmSaltsTheKeyAndGpsIgnoresPeripheralMode) {
  // Algorithm-salience audit (service/fingerprint.hpp), the portfolio twin
  // of UnbalancedSeedIsNotSalient:
  //  * the algorithm is ALWAYS salient — RCM, Sloan and GPS label the same
  //    pattern differently, so their entries must occupy distinct slots;
  //  * peripheral_mode is salient for kRcm (it moves the component roots,
  //    hence the labels) …
  //  * … but NOT for kGps, which never consumes the knob: two GPS requests
  //    differing only in peripheral_mode compute the identical ordering
  //    and must share ONE slot.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(13, 13), 3), 0.02);
  const auto b = wavy_rhs(m.n());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest rq;
  rq.matrix = &m;
  rq.b = b;

  const auto as_rcm = service.submit(rq);
  ASSERT_EQ(as_rcm.status, RequestStatus::kOk);
  EXPECT_FALSE(as_rcm.cache_hit);
  EXPECT_EQ(as_rcm.algorithm, rcm::OrderingAlgorithm::kRcm);
  EXPECT_FALSE(as_rcm.auto_selected);

  OrderSolveRequest sloan = rq;
  sloan.rcm.ordering.algorithm = rcm::OrderingAlgorithm::kSloan;
  const auto as_sloan = service.submit(sloan);
  ASSERT_EQ(as_sloan.status, RequestStatus::kOk);
  EXPECT_FALSE(as_sloan.cache_hit)
      << "a different algorithm is a different labeling: it must miss";
  EXPECT_NE(as_sloan.fingerprint.hash, as_rcm.fingerprint.hash);
  EXPECT_EQ(as_sloan.algorithm, rcm::OrderingAlgorithm::kSloan);
  EXPECT_TRUE(service.submit(sloan).cache_hit);

  // peripheral_mode splits kRcm slots …
  OrderSolveRequest bicriteria = rq;
  bicriteria.rcm.ordering.peripheral_mode =
      rcm::PeripheralMode::kBiCriteria;
  EXPECT_FALSE(service.submit(bicriteria).cache_hit)
      << "the peripheral mode moves the roots, so it salts RCM keys";
  EXPECT_TRUE(service.submit(bicriteria).cache_hit);

  // … but two GPS requests differing only in the mode share one slot.
  OrderSolveRequest gps = rq;
  gps.rcm.ordering.algorithm = rcm::OrderingAlgorithm::kGps;
  const auto gps_cold = service.submit(gps);
  ASSERT_EQ(gps_cold.status, RequestStatus::kOk);
  EXPECT_FALSE(gps_cold.cache_hit);
  OrderSolveRequest gps_mode = gps;
  gps_mode.rcm.ordering.peripheral_mode = rcm::PeripheralMode::kBiCriteria;
  const auto gps_warm = service.submit(gps_mode);
  ASSERT_EQ(gps_warm.status, RequestStatus::kOk);
  EXPECT_TRUE(gps_warm.cache_hit)
      << "GPS never consumes peripheral_mode: salting it would split "
         "identical orderings across slots";
  EXPECT_EQ(gps_warm.fingerprint, gps_cold.fingerprint);
  expect_bitwise_equal(gps_warm.x, gps_cold.x);
}

TEST(ServiceCache, AutoSharesTheSlotOfItsResolution) {
  // kAuto is resolved driver-side BEFORE salting, so an auto request and
  // an explicit request for its resolution are the same cache key — the
  // auto submission below must HIT the entry the explicit one inserted.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(12, 13), 11), 0.02);
  const auto b = wavy_rhs(m.n());
  const auto choice = rcm::select_ordering(m.strip_diagonal());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest explicit_rq;
  explicit_rq.matrix = &m;
  explicit_rq.b = b;
  explicit_rq.rcm.ordering.algorithm = choice.algorithm;
  ASSERT_EQ(service.submit(explicit_rq).status, RequestStatus::kOk);

  OrderSolveRequest auto_rq = explicit_rq;
  auto_rq.rcm.ordering.algorithm = rcm::OrderingAlgorithm::kAuto;
  const auto resp = service.submit(auto_rq);
  ASSERT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_TRUE(resp.cache_hit)
      << "auto must resolve before salting and share the explicit slot";
  EXPECT_EQ(service.cache_size(), 1u);
  // The response audits the decision: resolved algorithm plus the proxies
  // it was derived from.
  EXPECT_TRUE(resp.auto_selected);
  EXPECT_EQ(resp.algorithm, choice.algorithm);
  EXPECT_EQ(resp.proxies.n, m.strip_diagonal().n());
  EXPECT_EQ(resp.proxies.bandwidth, choice.proxies.bandwidth);
  EXPECT_EQ(resp.proxies.components, choice.proxies.components);
}

TEST(ServiceCache, UnsortedCsrCannotReachTheFingerprint) {
  // The fingerprint walks each row assuming strictly sorted columns; an
  // unsorted CSR would be silently mis-fingerprinted (entries outside the
  // probed window skipped), letting two distinct patterns collide. The
  // CsrMatrix constructor rejects such input at ingestion — pinned here
  // so the fingerprint's precondition can never be relaxed by accident —
  // and fingerprint_pattern_refined keeps its own in-walk sortedness
  // check as defense in depth.
  std::vector<nnz_t> row_ptr{0, 2, 3, 4};
  std::vector<index_t> unsorted_cols{2, 1, 0, 0};  // row 0: {2, 1}
  EXPECT_THROW(sparse::CsrMatrix(3, row_ptr, unsorted_cols), CheckError);

  std::vector<index_t> duplicate_cols{1, 1, 0, 0};  // row 0: {1, 1}
  EXPECT_THROW(sparse::CsrMatrix(3, row_ptr, duplicate_cols), CheckError);
}

TEST(ServiceCache, SamePatternNewValuesReusesThePlanBitIdentically) {
  // The plan is symbolic: a hit on the same pattern with other values must
  // place THOSE values and refactor, so anything value-dependent leaking
  // into the plan shows up here as a bit difference.
  const auto pattern = gen::relabel_random(gen::grid2d(15, 16), 21);
  const auto m1 = gen::with_laplacian_values(pattern, 0.02);
  const auto m2 = gen::with_laplacian_values(pattern, 0.05);
  const auto b = wavy_rhs(m1.n());

  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);

  OrderSolveRequest first;
  first.matrix = &m1;
  first.b = b;
  const auto cold = service.submit(first);
  ASSERT_EQ(cold.status, RequestStatus::kOk);
  EXPECT_FALSE(cold.plan_reused);

  OrderSolveRequest second;
  second.matrix = &m2;
  second.b = b;
  const auto hit = service.submit(second);
  ASSERT_EQ(hit.status, RequestStatus::kOk);
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.plan_reused);
  const auto reference =
      rcm::run_ordered_solve_recoverable(4, {.matrix = &m2, .b = b});
  ASSERT_TRUE(reference.result.cg.converged);
  EXPECT_EQ(hit.cg.iterations, reference.result.cg.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(hit.cg.relative_residual),
            std::bit_cast<std::uint64_t>(reference.result.cg.relative_residual));
  EXPECT_EQ(hit.permuted_bandwidth, reference.result.permuted_bandwidth);
  expect_bitwise_equal(hit.x, reference.result.x);

  // Four hits in one batch run on four 1-rank lanes: the entry's plans are
  // for 4-rank lanes, so each lane builds its own from the request and
  // must match a 1-rank service solving the same request.
  const std::vector<OrderSolveRequest> batch(4, second);
  const auto narrow = service.submit_batch(batch);
  ServiceOptions one_rank;
  one_rank.ranks = 1;
  ReorderingService sequential(one_rank);
  const auto seq = sequential.submit(second);
  ASSERT_EQ(seq.status, RequestStatus::kOk);
  for (const auto& resp : narrow) {
    ASSERT_EQ(resp.status, RequestStatus::kOk);
    EXPECT_TRUE(resp.cache_hit);
    EXPECT_EQ(resp.lane_ranks, 1);
    EXPECT_FALSE(resp.plan_reused) << "a 1-rank lane cannot use 4-rank plans";
    EXPECT_EQ(resp.cg.iterations, seq.cg.iterations);
    EXPECT_EQ(resp.permuted_bandwidth, seq.permuted_bandwidth);
    expect_bitwise_equal(resp.x, seq.x);
  }

  // The entry kept its 4-rank plans: the next full-width hit reuses them.
  const auto again = service.submit(second);
  ASSERT_EQ(again.status, RequestStatus::kOk);
  EXPECT_TRUE(again.plan_reused);
  expect_bitwise_equal(again.x, hit.x);
}

/// Runs `body` on a fresh 4-rank world and its 2x2 grid.
template <class Body>
void on_four_ranks(Body body) {
  mps::Runtime::run(4, [&](mps::Comm& world) {
    dist::ProcGrid2D grid(world);
    body(world, grid);
  });
}

/// Known-labels ordered solve without a plan, `plan_out` optional; returns
/// this rank's solution slab.
std::vector<double> known_labels_solve(dist::ProcGrid2D& grid,
                                       const sparse::CsrMatrix& m,
                                       const std::vector<double>& b,
                                       const std::vector<index_t>& labels,
                                       solver::SolvePlan* plan_out) {
  rcm::OrderedSolveSpec spec;
  spec.matrix = &m;
  spec.b = b;
  spec.labels = &labels;
  spec.plan_out = plan_out;
  return rcm::ordered_solve(grid, spec).x_local;
}

TEST(ServiceCache, PlanGuardRejectsOnEveryRankTogether) {
  // Two relabelings of one grid: the same n and nnz, different windows.
  // A plan routed from A must not place B's values, even under A's
  // labels — B's entries reach other slots.
  const auto base = gen::grid2d(14, 14);
  const auto a = gen::with_laplacian_values(gen::relabel_random(base, 31), 0.02);
  const auto c = gen::with_laplacian_values(gen::relabel_random(base, 32), 0.02);
  ASSERT_EQ(a.n(), c.n());
  ASSERT_EQ(a.nnz(), c.nnz());
  const auto b = wavy_rhs(a.n());
  const auto labels = rcm::run_dist_order(4, a.strip_diagonal()).labels;

  // The known-labels solve of C: what the lane must fall back to.
  std::vector<std::vector<double>> want(4);
  on_four_ranks([&](mps::Comm& world, dist::ProcGrid2D& grid) {
    want[static_cast<std::size_t>(world.rank())] =
        known_labels_solve(grid, c, b, labels, nullptr);
  });

  std::vector<int> accepted_a(4, -1), accepted_c(4, -1), accepted_tampered(4, -1);
  std::vector<std::vector<double>> got(4);
  on_four_ranks([&](mps::Comm& world, dist::ProcGrid2D& grid) {
    const auto r = static_cast<std::size_t>(world.rank());
    solver::SolvePlan plan;
    (void)known_labels_solve(grid, a, b, labels, &plan);

    // Control: A's own windows accept A's plans.
    PlanGuard guard_a;
    guard_a.plan = &plan;
    (void)fingerprint_pattern_refined(world, a, grid, &guard_a);
    accepted_a[r] = guard_a.accepted;

    // One rank's plan disagrees with its window: all four reject.
    solver::SolvePlan tampered = plan;
    if (world.rank() == 2) tampered.window_digest ^= 1;
    PlanGuard guard_t;
    guard_t.plan = &tampered;
    (void)fingerprint_pattern_refined(world, a, grid, &guard_t);
    accepted_tampered[r] = guard_t.accepted;

    // C under A's plans: rejected everywhere, so the lane rebuilds.
    PlanGuard guard_c;
    guard_c.plan = &plan;
    (void)fingerprint_pattern_refined(world, c, grid, &guard_c);
    accepted_c[r] = guard_c.accepted;
    EXPECT_NE(guard_c.window_digest, plan.window_digest) << "rank " << r;
    if (!guard_c.accepted) {
      got[r] = known_labels_solve(grid, c, b, labels, nullptr);
    }
  });
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(accepted_a[r], 1) << "rank " << r;
    EXPECT_EQ(accepted_tampered[r], 0) << "rank " << r;
    EXPECT_EQ(accepted_c[r], 0) << "rank " << r;
    expect_bitwise_equal(got[r], want[r]);
  }
}

TEST(ServiceCache, CorruptedPlanHitValueExchangeEndsStructured) {
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(13, 15), 17), 0.02);
  const auto b = wavy_rhs(m.n());

  mps::FaultPlan plan;
  ServiceOptions options;
  options.ranks = 4;
  options.faults = &plan;
  options.watchdog_seconds = 20.0;
  ReorderingService service(options);

  OrderSolveRequest request;
  request.matrix = &m;
  request.b = b;
  ASSERT_EQ(service.submit(request).status, RequestStatus::kOk);
  const auto first = service.submit(request);
  ASSERT_EQ(first.status, RequestStatus::kOk);
  ASSERT_TRUE(first.plan_reused);

  // A hit launch enters, on every rank: the world split (1), the
  // fingerprint allreduce (2), then the value-only matrix exchange (3); the
  // lane grid is built without a collective. Corrupt rank 1's copy of it.
  plan.corrupt_at(1, 3);
  const auto poisoned = service.submit(request);
  ASSERT_TRUE(plan.actions().front().fired);
  EXPECT_TRUE(poisoned.status == RequestStatus::kFault ||
              poisoned.cg.status == solver::SolveStatus::kNanInf)
      << poisoned.error;
  EXPECT_FALSE(poisoned.cg.converged)
      << "a corrupted value must never converge to a wrong x";

  // The hit wrote nothing: the entry and its plans serve the next hit.
  EXPECT_EQ(service.cache_size(), 1u);
  const auto next = service.submit(request);
  ASSERT_EQ(next.status, RequestStatus::kOk);
  EXPECT_TRUE(next.plan_reused);
  EXPECT_EQ(next.cg.iterations, first.cg.iterations);
  expect_bitwise_equal(next.x, first.x);
}

}  // namespace
}  // namespace drcm::service
