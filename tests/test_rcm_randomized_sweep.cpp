// Large randomized property sweep: the distributed RCM must agree
// bit-for-bit with the serial reference on arbitrary graphs — random
// structure, random density, random components, random grids.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "order/rcm_serial.hpp"
#include "order/rcm_shared.hpp"
#include "rcm/rcm_driver.hpp"
#include "rcm/trace_model.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

namespace drcm::rcm {
namespace {

namespace gen = sparse::gen;

/// A random graph drawn from a seeded family mix: meshes, random graphs,
/// power-law graphs, forests, with random relabeling and random extra
/// components.
sparse::CsrMatrix random_workload(u64 seed) {
  Rng rng(seed);
  const int family = static_cast<int>(rng.next_below(6));
  sparse::CsrMatrix base;
  switch (family) {
    case 0:
      base = gen::grid2d(5 + static_cast<index_t>(rng.next_below(10)),
                         5 + static_cast<index_t>(rng.next_below(10)));
      break;
    case 1:
      base = gen::grid3d(2 + static_cast<index_t>(rng.next_below(4)),
                         2 + static_cast<index_t>(rng.next_below(4)),
                         2 + static_cast<index_t>(rng.next_below(6)),
                         rng.next_below(2) ? gen::Stencil3d::k27
                                           : gen::Stencil3d::k7);
      break;
    case 2:
      base = gen::erdos_renyi(40 + static_cast<index_t>(rng.next_below(120)),
                              1.5 + 5.0 * rng.next_double(), rng.next_u64());
      break;
    case 3:
      base = gen::rmat(5 + static_cast<int>(rng.next_below(3)),
                       2 + static_cast<index_t>(rng.next_below(5)),
                       rng.next_u64());
      break;
    case 4:
      base = gen::caterpillar(3 + static_cast<index_t>(rng.next_below(10)),
                              static_cast<index_t>(rng.next_below(4)));
      break;
    default:
      base = gen::random_banded(60 + static_cast<index_t>(rng.next_below(100)),
                                2 + static_cast<index_t>(rng.next_below(8)),
                                0.2 + 0.6 * rng.next_double(), rng.next_u64());
      break;
  }
  if (rng.next_below(2)) base = gen::relabel_random(base, rng.next_u64());
  if (rng.next_below(3) == 0) {
    base = gen::disjoint_union(
        {base, gen::path(1 + static_cast<index_t>(rng.next_below(6))),
         gen::empty_graph(static_cast<index_t>(rng.next_below(3)))});
  }
  return base;
}

class RandomizedSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSweep, ::testing::Range(0, 24));

TEST_P(RandomizedSweep, DistEqualsSerialOnRandomGrid) {
  const auto seed = static_cast<u64>(GetParam());
  const auto a = random_workload(seed);
  Rng rng(seed ^ 0xabcdef);
  const int grids[] = {1, 4, 9, 16};
  const int p = grids[rng.next_below(4)];
  const auto want = order::rcm_serial(a);
  const auto run = run_dist_order(p, a);
  ASSERT_EQ(run.labels, want) << "seed " << seed << " p=" << p
                              << " n=" << a.n() << " nnz=" << a.nnz();
}

TEST_P(RandomizedSweep, SharedMemoryEqualsSerial) {
  const auto seed = static_cast<u64>(GetParam()) + 1000;
  const auto a = random_workload(seed);
  EXPECT_EQ(order::rcm_shared(a, 2), order::rcm_serial(a)) << "seed " << seed;
}

TEST_P(RandomizedSweep, ClassicFormulationAgrees) {
  const auto seed = static_cast<u64>(GetParam()) + 2000;
  const auto a = random_workload(seed);
  EXPECT_EQ(order::cm_classic(a), order::cm_serial(a)) << "seed " << seed;
}

TEST_P(RandomizedSweep, TraceStatsConsistent) {
  // The trace collector walks the same control flow as the orderings:
  // component and sweep counts must agree, and the ordering levels must
  // partition the vertex set.
  const auto seed = static_cast<u64>(GetParam()) + 3000;
  const auto a = random_workload(seed);
  order::OrderingStats stats;
  order::rcm_serial(a, &stats);
  const auto tr = ExecutionTrace::collect(a);
  EXPECT_EQ(tr.components, stats.components) << "seed " << seed;
  EXPECT_EQ(tr.peripheral_sweeps, stats.peripheral_bfs_sweeps)
      << "seed " << seed;
  index_t total = 0;
  for (const auto& l : tr.ordering_levels) total += l.frontier;
  EXPECT_EQ(total, a.n()) << "seed " << seed;
}

TEST_P(RandomizedSweep, LoadBalancedRunStaysValidAndGood) {
  const auto seed = static_cast<u64>(GetParam()) + 4000;
  const auto a = random_workload(seed);
  if (a.n() == 0) GTEST_SKIP();
  DistRcmOptions opt;
  opt.load_balance = true;
  opt.seed = seed;
  const auto run = run_dist_order(4, a, opt);
  ASSERT_TRUE(sparse::is_valid_permutation(run.labels)) << "seed " << seed;
}

}  // namespace
}  // namespace drcm::rcm
