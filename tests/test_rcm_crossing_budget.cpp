// The crossing-budget gate: run_dist_order(4) on the three order_deep
// stand-ins (the generators of bench/suite.hpp, which the perfbench
// order_deep workload also uses) must cross exactly the pinned number of
// barriers per matrix in the Peripheral:* and Ordering:* phases — and that
// number must equal the trace model's prediction. Barrier crossings are
// the per-superstep latency the speculative George-Liu search, the
// two-crossing BFS level and the three-crossing ordering level exist to
// cut, so any change to the superstep structure of an ordering pass moves
// these pins deterministically.
//
// Pins (peripheral + ordering = total):
//   shell3d     363 + 540 =  903   2 sweeps, 180 levels, no discard
//   kkt_mesh    124 + 383 =  507   3 sweeps,  64 levels, 1 discard
//   banded_nat  115 + 168 =  283   2 sweeps,  56 levels, no discard
// 1693 per pass in all. While every plain collective (the argmin and seed
// allreduces, the final label allgatherv) crossed twice, the same pass
// crossed 1703 barriers; with the five-crossing ordering level 2427, and
// before the speculative search and the two-crossing BFS level 3494.
#include <gtest/gtest.h>

#include <cstdint>

#include "../bench/suite.hpp"
#include "mpsim/stats.hpp"
#include "rcm/rcm_driver.hpp"
#include "rcm/trace_model.hpp"

namespace drcm::rcm {
namespace {

using mps::Phase;

struct Budget {
  const char* name;
  std::uint64_t peripheral;
  std::uint64_t ordering;
  int sweeps;
  int discarded;
  index_t levels;
};

constexpr Budget kBudgets[] = {
    {"shell3d", 363, 540, 2, 0, 180},
    {"kkt_mesh", 124, 383, 3, 1, 64},
    {"banded_nat", 115, 168, 2, 0, 56},
};

std::uint64_t crossings(const mps::SpmdReport& report,
                        std::initializer_list<Phase> phases) {
  std::uint64_t total = 0;
  for (const Phase phase : phases) {
    total += report.aggregate(phase).max.barrier_crossings;
  }
  return total;
}

TEST(CrossingBudget, OrderDeepStandInsCrossExactlyThePinnedBarriers) {
  const auto suite = bench::make_suite(1.0);
  std::uint64_t pass = 0;
  int sweeps = 0;
  index_t levels = 0;
  for (const auto& budget : kBudgets) {
    SCOPED_TRACE(budget.name);
    const auto& a = bench::entry_named(suite, budget.name).pattern;
    const auto run = run_dist_order(4, a);
    const auto peripheral = crossings(
        run.report, {Phase::kPeripheralSpmspv, Phase::kPeripheralOther});
    const auto ordering =
        crossings(run.report, {Phase::kOrderingSpmspv, Phase::kOrderingSort,
                               Phase::kOrderingOther});
    EXPECT_EQ(peripheral, budget.peripheral);
    EXPECT_EQ(ordering, budget.ordering);
    EXPECT_EQ(run.stats.peripheral_bfs_sweeps, budget.sweeps);
    EXPECT_EQ(run.stats.discarded_sweeps, budget.discarded);
    EXPECT_EQ(run.stats.ordering_levels, budget.levels);

    const auto model = project_cost(ExecutionTrace::collect(a), 4, 1);
    EXPECT_EQ(model.peripheral_crossings(), peripheral);
    EXPECT_EQ(model.ordering_crossings(), ordering);

    pass += peripheral + ordering;
    sweeps += run.stats.peripheral_bfs_sweeps;
    levels += run.stats.ordering_levels;
  }
  EXPECT_EQ(pass, 1693u);
  EXPECT_LE(pass, 1750u) << "the order_deep crossing budget";
  EXPECT_EQ(sweeps, 7);
  EXPECT_EQ(levels, 300);
}

}  // namespace
}  // namespace drcm::rcm
