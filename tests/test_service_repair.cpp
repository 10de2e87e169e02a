// Incremental ordering repair: the equivalence wall.
//
// The repair path (refined fingerprint -> delta classification -> cone
// re-level -> splice) promises BIT-IDENTITY: a repaired ordering equals
// what a cold recompute on the delta'd pattern would produce, or the
// repair honestly degrades/falls back. The wall sweeps
// {add, remove} x {1, 8, 64}-entry deltas over ER / grid / R-MAT / a
// many-component union at the CI rank counts (DRCM_TEST_RANKS honored)
// with verify_repair ON, so every successful repair is cross-checked
// against a stats-isolated cold ordering inside the lane — and the driver
// re-checks the end-to-end solution against a fresh cold service bit for
// bit.
//
// Deterministic repair coverage rides a two-component fixture (delta
// confined to the small component, the big one reused), which also
// anchors the pricing contract — repair-hit ordering crossings strictly
// between a cache hit's zero and a cold run's — and the fault case: a
// repair killed mid-flight falls back to a cold relaunch, completes OK,
// and never poisons the cache.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "dist_rank_matrix.hpp"
#include "mpsim/fault.hpp"
#include "rcm/rcm_driver.hpp"
#include "service/service.hpp"
#include "sparse/generators.hpp"
#include "sparse/pattern_delta.hpp"

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

/// The two-component repair fixture: a delta confined to the SMALL
/// component leaves the big one untouched, so plan_repair always prices
/// the repair profitable (component reuse alone is worth +6 crossings)
/// and dist_rcm_repair deterministically reports a repair hit. The
/// sizes are WINDOW-ALIGNED on purpose: n = 400 puts the row-window
/// width at exactly 25, so the big component (350 rows) fills windows
/// 0..13 and the small one (50 rows) fills windows 14..15 — a dirty
/// window in the small component can never bleed onto the big one.
struct SplitFixture {
  sparse::CsrMatrix adjacency;  ///< pattern, no diagonal
  index_t small_lo = 0;         ///< small component occupies [small_lo, n)

  SplitFixture() {
    const auto big = gen::grid2d(14, 25);
    const auto small = gen::grid2d(5, 10);
    small_lo = big.n();
    adjacency = gen::disjoint_union({big, small});
  }
};

TEST(ServiceRepair, EquivalenceWallAcrossDeltasGraphsAndRanks) {
  struct Family {
    std::string name;
    sparse::CsrMatrix adjacency;
  };
  std::vector<Family> families;
  families.push_back({"grid", gen::grid2d(20, 24)});
  families.push_back({"er", gen::erdos_renyi(420, 6.0, 77)});
  families.push_back({"rmat", gen::rmat(9, 4, 11)});
  // Many components: the component walk's reuse path (untouched paths)
  // and its early exits (a delta that merges components) over a long
  // walk, isolated vertices included.
  families.push_back(
      {"components",
       gen::disjoint_union({gen::grid2d(12, 15), gen::path(10), gen::path(10),
                            gen::path(10), gen::path(10), gen::path(10),
                            gen::path(10), gen::empty_graph(4)})});

  for (const int p : dist::testing::rank_counts()) {
    for (const auto& family : families) {
      const auto base = gen::with_laplacian_values(family.adjacency, 0.02);
      const auto b = wavy_rhs(base.n());
      for (const bool removing : {false, true}) {
        for (const index_t count : {index_t{1}, index_t{8}, index_t{64}}) {
          SCOPED_TRACE(family.name + " p=" + std::to_string(p) +
                       (removing ? " remove " : " add ") +
                       std::to_string(count));
          const auto delta = sparse::random_pattern_delta(
              family.adjacency, removing ? 0 : count, removing ? count : 0,
              0x9e3779b9u + static_cast<u64>(count));
          const auto perturbed_adj =
              sparse::apply_pattern_delta(family.adjacency, delta);
          const auto perturbed =
              gen::with_laplacian_values(perturbed_adj, 0.02);

          // Warm service: seed the base pattern, then submit the delta.
          // verify_repair makes every successful repair DRCM_CHECK its
          // labels against a stats-isolated cold recompute in the lane.
          ServiceOptions options;
          options.ranks = p;
          options.verify_repair = true;
          ReorderingService warm(options);

          OrderSolveRequest seed_rq;
          seed_rq.matrix = &base;
          seed_rq.b = b;
          ASSERT_EQ(warm.submit(seed_rq).status, RequestStatus::kOk);

          OrderSolveRequest delta_rq;
          delta_rq.matrix = &perturbed;
          delta_rq.b = b;
          const auto repaired = warm.submit(delta_rq);
          ASSERT_EQ(repaired.status, RequestStatus::kOk);
          EXPECT_FALSE(repaired.cache_hit);

          // Cold reference: a fresh service orders the perturbed pattern
          // from scratch on the identical lane geometry.
          ServiceOptions cold_options;
          cold_options.ranks = p;
          cold_options.enable_repair = false;
          ReorderingService cold(cold_options);
          const auto reference = cold.submit(delta_rq);
          ASSERT_EQ(reference.status, RequestStatus::kOk);

          EXPECT_EQ(repaired.permuted_bandwidth, reference.permuted_bandwidth);
          EXPECT_EQ(repaired.cg.iterations, reference.cg.iterations);
          expect_bitwise_equal(repaired.x, reference.x);

          if (repaired.repair_hit) {
            EXPECT_GT(repaired.changed_windows, 0);
            EXPECT_GT(repaired.ordering_crossings, 0u);
            EXPECT_LT(repaired.ordering_crossings,
                      reference.ordering_crossings)
                << "a repair hit must cost strictly fewer ordering "
                   "crossings than the cold run it replaced";
          }

          // The repaired entry is itself first-class: the next submission
          // of the perturbed pattern is a pure hit.
          const auto rehit = warm.submit(delta_rq);
          ASSERT_EQ(rehit.status, RequestStatus::kOk);
          EXPECT_TRUE(rehit.cache_hit);
          EXPECT_EQ(rehit.ordering_crossings, 0u);
          expect_bitwise_equal(rehit.x, reference.x);
        }
      }
    }
  }
}

TEST(ServiceRepair, TwoComponentDeltaDeterministicallyRepairs) {
  SplitFixture fixture;
  const auto base = gen::with_laplacian_values(fixture.adjacency, 0.02);
  const auto b = wavy_rhs(base.n());
  // One edge added inside the small component: the big component reuses,
  // so the plan is profitable whatever level the edge lands on.
  const auto delta = sparse::random_pattern_delta(
      fixture.adjacency, 1, 0, 42, fixture.small_lo, fixture.adjacency.n());
  const auto perturbed = gen::with_laplacian_values(
      sparse::apply_pattern_delta(fixture.adjacency, delta), 0.02);

  for (const int p : dist::testing::rank_counts()) {
    SCOPED_TRACE("p=" + std::to_string(p));
    ServiceOptions options;
    options.ranks = p;
    options.verify_repair = true;
    ReorderingService service(options);

    OrderSolveRequest seed_rq;
    seed_rq.matrix = &base;
    seed_rq.b = b;
    ASSERT_EQ(service.submit(seed_rq).status, RequestStatus::kOk);

    OrderSolveRequest delta_rq;
    delta_rq.matrix = &perturbed;
    delta_rq.b = b;
    const auto repaired = service.submit(delta_rq);
    ASSERT_EQ(repaired.status, RequestStatus::kOk);
    EXPECT_TRUE(repaired.repair_hit)
        << "untouched-component reuse must make this delta repairable";
    EXPECT_FALSE(repaired.cache_hit);
    EXPECT_GT(repaired.changed_windows, 0);
    EXPECT_EQ(service.repair_hits(), 1u);

    ServiceOptions cold_options;
    cold_options.ranks = p;
    cold_options.enable_repair = false;
    ReorderingService cold(cold_options);
    const auto reference = cold.submit(delta_rq);
    ASSERT_EQ(reference.status, RequestStatus::kOk);
    EXPECT_EQ(repaired.permuted_bandwidth, reference.permuted_bandwidth);
    expect_bitwise_equal(repaired.x, reference.x);
    EXPECT_GT(repaired.ordering_crossings, 0u);
    EXPECT_LT(repaired.ordering_crossings, reference.ordering_crossings);
  }
}

TEST(ServiceRepair, FaultDuringRepairFallsBackColdWithoutPoisoningTheCache) {
  SplitFixture fixture;
  const auto base = gen::with_laplacian_values(fixture.adjacency, 0.02);
  const auto b = wavy_rhs(base.n());
  const auto delta = sparse::random_pattern_delta(
      fixture.adjacency, 1, 0, 42, fixture.small_lo, fixture.adjacency.n());
  const auto perturbed = gen::with_laplacian_values(
      sparse::apply_pattern_delta(fixture.adjacency, delta), 0.02);

  OrderSolveRequest seed_rq;
  seed_rq.matrix = &base;
  seed_rq.b = b;
  OrderSolveRequest delta_rq;
  delta_rq.matrix = &perturbed;
  delta_rq.b = b;

  mps::FaultPlan plan;
  ServiceOptions options;
  options.ranks = 4;
  options.faults = &plan;
  options.watchdog_seconds = 20.0;
  options.verify_repair = true;
  ReorderingService service(options);

  ASSERT_EQ(service.submit(seed_rq).status, RequestStatus::kOk);
  ASSERT_EQ(service.cache_size(), 1u);

  // The clean run (TwoComponentDeltaDeterministicallyRepairs) proves this
  // exact (base, delta) pair schedules a repair at p = 4; now rank 1 dies
  // a few collectives into that repair, at its second BFS level (armed
  // only after the seed launch, so the seed ordering is already resident).
  // The request must NOT fail: a killed repair relaunches COLD, completes,
  // and caches a valid entry.
  plan.die_at(1, 6);

  const auto recovered = service.submit(delta_rq);
  ASSERT_EQ(recovered.status, RequestStatus::kOk)
      << "a killed repair must fall back to cold, not fail the request: "
      << recovered.error;
  EXPECT_FALSE(recovered.repair_hit);
  EXPECT_FALSE(recovered.cache_hit);
  EXPECT_GE(service.launches(), 3) << "seed, killed attempt, cold relaunch";
  EXPECT_EQ(service.repair_hits(), 0u);
  EXPECT_EQ(service.cache_size(), 2u)
      << "the recovered cold ordering is cached; nothing was poisoned";

  // Both the recovered solution and the rehit match a never-faulted cold
  // reference bit for bit.
  ServiceOptions cold_options;
  cold_options.ranks = 4;
  cold_options.enable_repair = false;
  ReorderingService cold(cold_options);
  const auto reference = cold.submit(delta_rq);
  ASSERT_EQ(reference.status, RequestStatus::kOk);
  EXPECT_EQ(recovered.permuted_bandwidth, reference.permuted_bandwidth);
  expect_bitwise_equal(recovered.x, reference.x);

  const auto rehit = service.submit(delta_rq);
  ASSERT_EQ(rehit.status, RequestStatus::kOk);
  EXPECT_TRUE(rehit.cache_hit);
  EXPECT_EQ(rehit.ordering_crossings, 0u);
  expect_bitwise_equal(rehit.x, reference.x);
}

}  // namespace
}  // namespace drcm::service
