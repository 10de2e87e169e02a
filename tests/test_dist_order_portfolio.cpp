// The ordering portfolio's walls: distributed Sloan and GPS bit-identical
// to their serial twins over grid sizes, the bi-criteria peripheral mode
// bit-identical and never costlier (in BFS sweeps) than George-Liu, the
// kAuto selector deterministic across grids, and every algorithm sane on
// degenerate inputs.
#include <gtest/gtest.h>

#include "order/gps.hpp"
#include "order/pseudo_peripheral.hpp"
#include "order/rcm_serial.hpp"
#include "order/sloan.hpp"
#include "rcm/ordering.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

namespace drcm::rcm {
namespace {

using sparse::CsrMatrix;
namespace gen = sparse::gen;

CsrMatrix workload(int which) {
  switch (which) {
    case 0: return gen::path(37);
    case 1: return gen::cycle(24);
    case 2: return gen::star(15);
    case 3: return gen::grid2d(9, 11);
    case 4: return gen::grid2d_9pt(8, 7);
    case 5: return gen::grid3d(4, 5, 4);
    case 6: return gen::erdos_renyi(120, 5.0, 3);
    case 7: return gen::rmat(7, 5, 11);
    case 8: return gen::relabel_random(gen::grid2d(11, 11), 5);
    case 9: return gen::kkt_system(gen::grid2d(7, 7), 25);
    case 10:
      return gen::disjoint_union(
          {gen::path(9), gen::cycle(7), gen::empty_graph(4), gen::star(5)});
    case 11: return gen::caterpillar(8, 3);
    default: return gen::complete(10);
  }
}
constexpr int kNumWorkloads = 13;

DistRcmOptions with(OrderingAlgorithm algo,
                    PeripheralMode mode = PeripheralMode::kGeorgeLiu) {
  DistRcmOptions opt;
  opt.ordering.algorithm = algo;
  opt.ordering.peripheral_mode = mode;
  return opt;
}

// ---- Distributed Sloan wall -----------------------------------------

class DistSloanGrids
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    GridsAndWorkloads, DistSloanGrids,
    ::testing::Combine(::testing::Values(1, 4, 9),
                       ::testing::Range(0, kNumWorkloads)));

TEST_P(DistSloanGrids, BitIdenticalToSerialSloanLevels) {
  const auto [p, which] = GetParam();
  const auto a = workload(which);
  const auto want = order::sloan_levels(a);
  const auto run = run_dist_order(p, a, with(OrderingAlgorithm::kSloan));
  EXPECT_EQ(run.labels, want) << "workload " << which << " p=" << p;
  EXPECT_EQ(run.stats.algorithm, OrderingAlgorithm::kSloan);
}

TEST_P(DistSloanGrids, BiCriteriaModeStaysBitIdentical) {
  const auto [p, which] = GetParam();
  if (which % 3 != 0) GTEST_SKIP() << "subset is enough for the mode variant";
  const auto a = workload(which);
  const auto want =
      order::sloan_levels(a, {}, order::PeripheralMode::kBiCriteria);
  const auto run = run_dist_order(
      p, a, with(OrderingAlgorithm::kSloan, PeripheralMode::kBiCriteria));
  EXPECT_EQ(run.labels, want) << "workload " << which << " p=" << p;
}

TEST(DistSloan, ImprovesBandwidthAndIsAPermutation) {
  const auto a = gen::relabel_random(gen::grid2d(12, 12), 3);
  const auto run = run_dist_order(4, a, with(OrderingAlgorithm::kSloan));
  EXPECT_TRUE(sparse::is_valid_permutation(run.labels));
  EXPECT_LT(sparse::bandwidth_with_labels(a, run.labels),
            sparse::bandwidth(a));
}

// ---- Distributed GPS wall -------------------------------------------

class DistGpsGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, DistGpsGrids, ::testing::Values(1, 4, 9));

TEST_P(DistGpsGrids, BitIdenticalToSerialGps) {
  const int p = GetParam();
  for (int which : {0, 2, 3, 6, 8, 10}) {
    const auto a = workload(which);
    const auto run = run_dist_order(p, a, with(OrderingAlgorithm::kGps));
    EXPECT_EQ(run.labels, order::gps(a)) << "workload " << which;
    EXPECT_EQ(run.stats.algorithm, OrderingAlgorithm::kGps);
  }
}

// ---- Bi-criteria peripheral mode ------------------------------------

class BiCriteriaRcmGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, BiCriteriaRcmGrids,
                         ::testing::Values(1, 4, 9));

TEST_P(BiCriteriaRcmGrids, DistRcmMatchesSerialBiCriteria) {
  const int p = GetParam();
  for (int which = 0; which < kNumWorkloads; ++which) {
    const auto a = workload(which);
    const auto want = order::rcm_serial(a, nullptr,
                                        order::PeripheralMode::kBiCriteria);
    const auto run = run_dist_order(
        p, a, with(OrderingAlgorithm::kRcm, PeripheralMode::kBiCriteria));
    EXPECT_EQ(run.labels, want) << "workload " << which << " p=" << p;
  }
}

TEST(BiCriteria, NeverSweepsMoreThanGeorgeLiuAndSometimesLess) {
  // The RCM++ acceptance rule only continues iterating when BOTH criteria
  // improve, so sweeps(bi) <= sweeps(GL) on every input; and on at least
  // one suite workload it must actually save a sweep or shrink the level
  // count — the existence half of the acceptance criterion (CI re-gates
  // the same property from BENCH_5.json).
  bool improved_somewhere = false;
  for (int which = 0; which < kNumWorkloads; ++which) {
    const auto a = workload(which);
    order::OrderingStats gl, bi;
    order::rcm_serial(a, &gl, order::PeripheralMode::kGeorgeLiu);
    order::rcm_serial(a, &bi, order::PeripheralMode::kBiCriteria);
    EXPECT_LE(bi.peripheral_bfs_sweeps, gl.peripheral_bfs_sweeps)
        << "workload " << which;
    if (bi.peripheral_bfs_sweeps < gl.peripheral_bfs_sweeps ||
        bi.ordering_levels < gl.ordering_levels) {
      improved_somewhere = true;
    }
  }
  EXPECT_TRUE(improved_somewhere)
      << "bi-criteria must beat George-Liu on at least one suite workload";
}

TEST(BiCriteria, DistStatsMatchSerial) {
  const auto a = gen::relabel_random(gen::grid2d(13, 13), 7);
  order::OrderingStats serial;
  order::rcm_serial(a, &serial, order::PeripheralMode::kBiCriteria);
  const auto run = run_dist_order(
      4, a, with(OrderingAlgorithm::kRcm, PeripheralMode::kBiCriteria));
  EXPECT_EQ(run.stats.peripheral_bfs_sweeps, serial.peripheral_bfs_sweeps);
  EXPECT_EQ(run.stats.ordering_levels, serial.ordering_levels);
}

// ---- kAuto selector --------------------------------------------------

TEST(Selector, DeterministicAcrossGridSizes) {
  // The selector consumes matrix proxies only — never rank count or
  // timing — so the same matrix resolves to the same algorithm (and the
  // same labels) at every grid size.
  for (int which : {0, 3, 6, 10, 12}) {
    const auto a = workload(which);
    const auto r1 = run_dist_order(1, a, with(OrderingAlgorithm::kAuto));
    const auto r4 = run_dist_order(4, a, with(OrderingAlgorithm::kAuto));
    const auto r9 = run_dist_order(9, a, with(OrderingAlgorithm::kAuto));
    EXPECT_NE(r1.stats.algorithm, OrderingAlgorithm::kAuto);
    EXPECT_EQ(r1.stats.algorithm, r4.stats.algorithm) << "workload " << which;
    EXPECT_EQ(r4.stats.algorithm, r9.stats.algorithm) << "workload " << which;
    EXPECT_EQ(r1.labels, r4.labels) << "workload " << which;
    EXPECT_EQ(r4.labels, r9.labels) << "workload " << which;
  }
}

TEST(Selector, ResolutionMatchesSelectOrdering) {
  for (int which = 0; which < kNumWorkloads; ++which) {
    const auto a = workload(which);
    const auto choice = select_ordering(a);
    EXPECT_NE(choice.algorithm, OrderingAlgorithm::kAuto);
    const auto run = run_dist_order(4, a, with(OrderingAlgorithm::kAuto));
    EXPECT_EQ(run.stats.algorithm, choice.algorithm) << "workload " << which;
    // The resolved run is bit-identical to requesting the choice directly.
    const auto direct = run_dist_order(4, a, with(choice.algorithm));
    EXPECT_EQ(run.labels, direct.labels) << "workload " << which;
  }
}

TEST(Selector, ProxiesDescribeTheMatrix) {
  const auto a = gen::grid2d(10, 10);
  const auto p = ordering_proxies(a);
  EXPECT_EQ(p.n, a.n());
  EXPECT_EQ(p.nnz, a.nnz());
  EXPECT_EQ(p.bandwidth, sparse::bandwidth(a));
  EXPECT_EQ(p.components, 1);
  EXPECT_GT(p.avg_degree, 0.0);
  EXPECT_GT(p.rms_wavefront, 0.0);
}

// ---- Degenerate sweep: every algorithm, every grid -------------------

class DegenerateAlgorithms
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    AlgosAndGrids, DegenerateAlgorithms,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Values(1, 4)));

TEST_P(DegenerateAlgorithms, EmptySingletonStarAllOrder) {
  const auto [which_algo, p] = GetParam();
  const auto algo = static_cast<OrderingAlgorithm>(which_algo);
  const CsrMatrix degenerates[] = {gen::empty_graph(0), gen::empty_graph(1),
                                   gen::star(6), gen::empty_graph(5)};
  for (const auto& a : degenerates) {
    const auto run = run_dist_order(p, a, with(algo));
    EXPECT_TRUE(sparse::is_valid_permutation(run.labels))
        << "algo " << ordering_algorithm_name(algo) << " n=" << a.n();
    EXPECT_EQ(run.labels.size(), static_cast<std::size_t>(a.n()));
    EXPECT_NE(run.stats.algorithm, OrderingAlgorithm::kAuto);
  }
}

// ---- Entry-point contracts --------------------------------------------

TEST(DistOrder, RecipeCaptureDeclinedOffRcmArm) {
  const auto a = gen::grid2d(6, 6);
  mps::Runtime::run(1, [&](mps::Comm& world) {
    dist::ProcGrid2D grid(world);
    OrderingRecipe recipe;
    EXPECT_THROW(dist_order(grid, a, with(OrderingAlgorithm::kSloan), nullptr,
                            &recipe),
                 CheckError);
  });
}

TEST(DistOrder, RecipeCaptureDeclinedUnderLoadBalancing) {
  // A balanced run orders the relabeled pattern, so its recipe would hold
  // seeds, roots and level starts in the balanced numbering while the
  // labels come back in the original one; repair would then splice across
  // the two. dist_order refuses the pair before any collective, for
  // direct callers and for ordered_solve alike.
  const auto a = gen::relabel_random(gen::grid2d(9, 11), 5);
  const auto m = gen::with_laplacian_values(a);
  const std::vector<double> b(static_cast<std::size_t>(m.n()), 1.0);
  DistRcmOptions balanced;
  balanced.load_balance = true;
  for (const int p : {1, 4}) {
    const auto report = mps::Runtime::run(p, [&](mps::Comm& world) {
      dist::ProcGrid2D grid(world);
      OrderingRecipe recipe;
      EXPECT_THROW(dist_order(grid, a, balanced, nullptr, &recipe),
                   CheckError)
          << "p=" << p;
      EXPECT_TRUE(recipe.empty());
    });
    for (const auto& rank : report.ranks) {
      EXPECT_EQ(rank.total().barrier_crossings, 0u) << "p=" << p;
    }
    mps::Runtime::run(p, [&](mps::Comm& world) {
      dist::ProcGrid2D grid(world);
      OrderingRecipe recipe;
      OrderedSolveSpec spec;
      spec.matrix = &m;
      spec.b = b;
      spec.rcm = balanced;
      spec.recipe = &recipe;
      EXPECT_THROW(ordered_solve(grid, spec), CheckError) << "p=" << p;
    });
  }
}

TEST(DistOrder, RecoverableRunnerCoversThePortfolio) {
  // The recoverable pipeline's stage 1 goes through dist_order, so a Sloan
  // request survives the 3-stage checkpointed run end to end.
  const auto solver_matrix = gen::with_laplacian_values(gen::grid2d(7, 7));
  const std::vector<double> b(static_cast<std::size_t>(solver_matrix.n()),
                              1.0);
  OrderedSolveSpec spec;
  spec.matrix = &solver_matrix;
  spec.b = b;
  spec.rcm = with(OrderingAlgorithm::kSloan);
  const auto run = run_ordered_solve_recoverable(4, spec);
  EXPECT_EQ(run.result.labels,
            order::sloan_levels(solver_matrix.strip_diagonal()));
  EXPECT_EQ(run.result.cg.status, solver::SolveStatus::kConverged);
}

}  // namespace
}  // namespace drcm::rcm
