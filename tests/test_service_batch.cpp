// Batched execution of the reordering service: independent requests run
// CONCURRENTLY on disjoint square sub-grids (lanes) carved from the rank
// fleet by one split, with per-request ledgers and fault isolation.
//
//  * a batch of four on sixteen ranks equals four sequential submissions
//    on a four-rank service BIT FOR BIT (the lanes are 2x2 grids either
//    way, and lane concurrency may not perturb determinism);
//  * per-request reports are isolated: one SpmdReport per request, sized
//    to the lane, each with real work in it, lanes disjoint;
//  * a FaultPlan-killed request returns a structured kFault while every
//    batch peer completes bit-identically to a fault-free batch — and the
//    victim leaves no cache entry;
//  * more requests than lanes round-robin onto the available lanes
//    (five requests on four 1x1 lanes queue two on lane 0);
//  * duplicate patterns inside one batch COALESCE: the first occurrence
//    computes the ordering exactly once, twins wait a wave and are served
//    from the freshly inserted entry;
//  * a wave-end insert may never evict an entry a request of the same
//    batch was served from — the cache overflows capacity instead;
//  * concurrent lanes of one batch reuse the SAME entry's solve plans
//    (read-only, while both lanes' ranks run) and match a single hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

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

struct BatchFixture {
  std::vector<sparse::CsrMatrix> matrices;
  std::vector<std::vector<double>> rhs;
  std::vector<OrderSolveRequest> requests;

  explicit BatchFixture(int count) {
    matrices.reserve(static_cast<std::size_t>(count));
    rhs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      matrices.push_back(gen::with_laplacian_values(
          gen::relabel_random(gen::grid2d(11 + i, 12), 40 + i), 0.02));
      rhs.push_back(wavy_rhs(matrices.back().n(), static_cast<unsigned>(i)));
    }
    requests.resize(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      requests[static_cast<std::size_t>(i)].matrix =
          &matrices[static_cast<std::size_t>(i)];
      requests[static_cast<std::size_t>(i)].b = rhs[static_cast<std::size_t>(i)];
    }
  }
};

TEST(ServiceBatch, MatchesSequentialSubmissionBitForBit) {
  BatchFixture fixture(4);

  ServiceOptions wide;
  wide.ranks = 16;  // four concurrent 2x2 lanes
  ReorderingService batch_service(wide);
  const auto batch = batch_service.submit_batch(fixture.requests);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch_service.launches(), 1);

  ServiceOptions narrow;
  narrow.ranks = 4;  // one 2x2 lane, requests one after another
  ReorderingService seq_service(narrow);

  std::vector<bool> lane_seen(4, false);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(batch[i].status, RequestStatus::kOk) << "request " << i;
    EXPECT_FALSE(batch[i].cache_hit);
    EXPECT_EQ(batch[i].lane_ranks, 4);
    ASSERT_GE(batch[i].lane, 0);
    ASSERT_LT(batch[i].lane, 4);
    EXPECT_FALSE(lane_seen[static_cast<std::size_t>(batch[i].lane)])
        << "two requests shared lane " << batch[i].lane;
    lane_seen[static_cast<std::size_t>(batch[i].lane)] = true;

    const auto seq = seq_service.submit(fixture.requests[i]);
    ASSERT_EQ(seq.status, RequestStatus::kOk);
    EXPECT_EQ(batch[i].fingerprint, seq.fingerprint);
    EXPECT_EQ(batch[i].permuted_bandwidth, seq.permuted_bandwidth);
    EXPECT_EQ(batch[i].cg.iterations, seq.cg.iterations);
    expect_bitwise_equal(batch[i].x, seq.x);
  }
}

TEST(ServiceBatch, PerRequestLedgersAreIsolatedAndSizedToTheLane) {
  BatchFixture fixture(4);
  ServiceOptions options;
  options.ranks = 16;
  ReorderingService service(options);
  const auto responses = service.submit_batch(fixture.requests);

  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto& resp = responses[i];
    ASSERT_EQ(resp.status, RequestStatus::kOk);
    ASSERT_EQ(resp.report.ranks.size(), 4u) << "one recorder per lane rank";
    // Every lane rank did real, attributed work on this request alone:
    // a miss has ordering crossings, a redistribution, and a solve.
    for (const auto& rank : resp.report.ranks) {
      EXPECT_GT(mps::ordering_crossings(rank), 0u) << "request " << i;
      EXPECT_GT(rank.phase(mps::Phase::kRedistribute).barrier_crossings, 0u);
      EXPECT_GT(rank.phase(mps::Phase::kSolver).barrier_crossings, 0u);
      EXPECT_GT(rank.peak_resident_elements(), 0u);
    }
    std::uint64_t max_crossings = 0;
    for (const auto& rank : resp.report.ranks) {
      max_crossings = std::max(max_crossings, mps::ordering_crossings(rank));
    }
    EXPECT_EQ(resp.ordering_crossings, max_crossings);
  }
  // The cumulative ledger saw the whole fleet.
  EXPECT_EQ(service.cumulative_report().ranks.size(), 16u);
}

TEST(ServiceBatch, KilledRequestFailsAloneWhilePeersCompleteBitIdentically) {
  BatchFixture fixture(4);

  // Fault-free reference batch on an identical fresh service.
  ServiceOptions clean;
  clean.ranks = 16;
  ReorderingService reference(clean);
  const auto want = reference.submit_batch(fixture.requests);

  // World rank 5 = lane 1, lane rank 1; its 7th collective (the third BFS
  // level of the peripheral search) lands inside request 1's ordering. The
  // fleet is poisoned, the driver attributes the death to request 1, and
  // relaunches the survivors from its checkpoints.
  mps::FaultPlan plan;
  plan.die_at(5, 7);
  ServiceOptions faulty;
  faulty.ranks = 16;
  faulty.faults = &plan;
  faulty.watchdog_seconds = 20.0;
  ReorderingService service(faulty);
  const auto got = service.submit_batch(fixture.requests);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_GE(service.launches(), 2);

  EXPECT_EQ(got[1].status, RequestStatus::kFault);
  EXPECT_NE(got[1].error.find("rank-death"), std::string::npos) << got[1].error;
  EXPECT_NE(got[1].error.find("rank 5"), std::string::npos) << got[1].error;
  EXPECT_TRUE(got[1].x.empty());

  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    ASSERT_EQ(got[i].status, RequestStatus::kOk) << "peer " << i;
    EXPECT_EQ(got[i].cg.iterations, want[i].cg.iterations);
    EXPECT_EQ(got[i].permuted_bandwidth, want[i].permuted_bandwidth);
    expect_bitwise_equal(got[i].x, want[i].x);
  }

  // The victim left no cache entry: its pattern misses, completes now that
  // the one-shot fault is spent, and matches the reference.
  EXPECT_EQ(service.cache_size(), 3u);
  // (No cross-geometry bit comparison: a lone submit runs on the full 4x4
  // fleet, a different reduction order than the batch's 2x2 lane.)
  const auto retried = service.submit(fixture.requests[1]);
  ASSERT_EQ(retried.status, RequestStatus::kOk);
  EXPECT_FALSE(retried.cache_hit);
  EXPECT_TRUE(retried.cg.converged);
  EXPECT_EQ(retried.permuted_bandwidth, want[1].permuted_bandwidth);
  EXPECT_EQ(service.cache_size(), 4u);
}

TEST(ServiceBatch, MoreRequestsThanRanksRoundRobinOntoLanes) {
  // Three requests on four ranks: three 1x1 lanes (one rank idles), each
  // request a single-rank pipeline — results must equal the launcher's at
  // p = 1 exactly.
  BatchFixture fixture(3);
  ServiceOptions options;
  options.ranks = 4;
  ReorderingService service(options);
  const auto responses = service.submit_batch(fixture.requests);
  ASSERT_EQ(responses.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(responses[i].status, RequestStatus::kOk);
    EXPECT_EQ(responses[i].lane_ranks, 1);
    const auto want = rcm::run_ordered_solve_recoverable(
        1, {.matrix = &fixture.matrices[i], .b = fixture.rhs[i]});
    expect_bitwise_equal(responses[i].x, want.result.x);
  }

  // Five requests on four ranks: four 1x1 lanes, dealt round-robin, so
  // lane 0 queues requests 0 and 4 in the same launch; each still equals
  // the p = 1 launcher.
  BatchFixture five(5);
  ReorderingService queued_service(options);
  const auto queued = queued_service.submit_batch(five.requests);
  ASSERT_EQ(queued.size(), 5u);
  EXPECT_EQ(queued_service.launches(), 1);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(queued[i].status, RequestStatus::kOk);
    EXPECT_EQ(queued[i].lane, static_cast<int>(i % 4));
    EXPECT_EQ(queued[i].lane_ranks, 1);
    const auto want = rcm::run_ordered_solve_recoverable(
        1, {.matrix = &five.matrices[i], .b = five.rhs[i]});
    expect_bitwise_equal(queued[i].x, want.result.x);
  }
}

TEST(ServiceBatch, DuplicatePatternsInOneBatchComputeOnceAndCoalesce) {
  // Two requests for the SAME pattern: the first occurrence computes, the
  // twin is deferred a wave (coalescing) and served from the entry its
  // sibling inserted at wave end — the ordering runs EXACTLY once, and
  // the twin's ledger shows a pure hit (zero ordering crossings).
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(12, 13), 3), 0.02);
  const auto b = wavy_rhs(m.n());
  OrderSolveRequest request;
  request.matrix = &m;
  request.b = b;
  const std::vector<OrderSolveRequest> twice{request, request};

  ServiceOptions options;
  options.ranks = 16;
  ReorderingService service(options);
  const auto responses = service.submit_batch(twice);
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_EQ(responses[0].status, RequestStatus::kOk);
  ASSERT_EQ(responses[1].status, RequestStatus::kOk);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_FALSE(responses[0].coalesced);
  EXPECT_TRUE(responses[1].cache_hit)
      << "the twin must be served from its sibling's ordering";
  EXPECT_TRUE(responses[1].coalesced);
  EXPECT_EQ(responses[1].ordering_crossings, 0u);
  EXPECT_EQ(responses[0].fingerprint, responses[1].fingerprint);
  expect_bitwise_equal(responses[0].x, responses[1].x);
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_EQ(service.cache_misses(), 1u)
      << "duplicate patterns in one batch must compute the ordering once";
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.coalesced_served(), 1u);
  EXPECT_EQ(service.launches(), 2) << "compute wave, then the serve wave";
  EXPECT_TRUE(service.submit(request).cache_hit);
}

TEST(ServiceBatch, WaveEndInsertNeverEvictsAnEntryTheBatchWasServedFrom) {
  // Capacity 1 with entry A resident. A batch of [hit-on-A, miss-B]:
  // B's wave-end insert needs a victim, but A was served to a request of
  // the SAME batch — it is pinned, and the cache briefly overflows
  // capacity rather than invalidate what a twin just read.
  const auto a = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(11, 12), 1), 0.02);
  const auto c = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(11, 12), 2), 0.02);
  const auto b = wavy_rhs(a.n());

  ServiceOptions options;
  options.ranks = 16;
  options.cache_capacity = 1;
  options.enable_repair = false;  // isolate the eviction policy
  ReorderingService service(options);

  OrderSolveRequest ra;
  ra.matrix = &a;
  ra.b = b;
  OrderSolveRequest rc;
  rc.matrix = &c;
  rc.b = b;

  EXPECT_FALSE(service.submit(ra).cache_hit);
  ASSERT_EQ(service.cache_size(), 1u);

  const std::vector<OrderSolveRequest> batch{ra, rc};
  const auto responses = service.submit_batch(batch);
  ASSERT_EQ(responses[0].status, RequestStatus::kOk);
  ASSERT_EQ(responses[1].status, RequestStatus::kOk);
  EXPECT_TRUE(responses[0].cache_hit);
  EXPECT_FALSE(responses[1].cache_hit);
  EXPECT_EQ(service.cache_size(), 2u)
      << "the insert must overflow capacity, not evict the served entry";
  EXPECT_TRUE(service.submit(ra).cache_hit) << "A survived its own batch";
  EXPECT_TRUE(service.submit(rc).cache_hit);
}

TEST(ServiceBatch, ConcurrentLanesReuseOneEntrysPlans) {
  // Eight ranks: a lone request runs on the largest square lane (4
  // ranks), and so does each request of a two-request batch — two
  // concurrent 2x2 lanes reading one entry's 2x2 plans.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(12, 13), 61), 0.02);
  const auto b = wavy_rhs(m.n(), 3);

  ServiceOptions options;
  options.ranks = 8;
  ReorderingService service(options);
  OrderSolveRequest request;
  request.matrix = &m;
  request.b = b;
  ASSERT_EQ(service.submit(request).status, RequestStatus::kOk);
  const auto single = service.submit(request);
  ASSERT_EQ(single.status, RequestStatus::kOk);
  ASSERT_TRUE(single.plan_reused);

  const std::vector<OrderSolveRequest> batch(2, request);
  const auto responses = service.submit_batch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].lane, responses[1].lane);
  for (const auto& resp : responses) {
    ASSERT_EQ(resp.status, RequestStatus::kOk);
    EXPECT_EQ(resp.lane_ranks, 4);
    EXPECT_TRUE(resp.plan_reused);
    EXPECT_EQ(resp.cg.iterations, single.cg.iterations);
    expect_bitwise_equal(resp.x, single.x);
  }
}

}  // namespace
}  // namespace drcm::service
