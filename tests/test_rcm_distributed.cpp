// Integration tests for the distributed RCM core: bit-identical agreement
// with the serial reference on every grid size, every workload class.
#include <gtest/gtest.h>

#include "mpsim/runtime.hpp"
#include "order/pseudo_peripheral.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/dist_peripheral.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

namespace drcm::rcm {
namespace {

using mps::Comm;
using mps::Runtime;
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

class DistRcmMatchesSerial
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    GridsAndWorkloads, DistRcmMatchesSerial,
    ::testing::Combine(::testing::Values(1, 4, 9, 16),
                       ::testing::Range(0, kNumWorkloads)));

TEST_P(DistRcmMatchesSerial, BitIdenticalLabels) {
  const auto [p, which] = GetParam();
  const auto a = workload(which);
  const auto want = order::rcm_serial(a);
  const auto run = run_dist_order(p, a);
  EXPECT_EQ(run.labels, want) << "workload " << which << " p=" << p;
}

TEST(DistRcm, ComponentAndSweepStatsMatchSerial) {
  const auto a = gen::disjoint_union({gen::path(20), gen::grid2d(6, 6),
                                      gen::empty_graph(2)});
  order::OrderingStats serial_stats;
  order::rcm_serial(a, &serial_stats);
  const auto run = run_dist_order(4, a);
  EXPECT_EQ(run.stats.components, serial_stats.components);
  EXPECT_EQ(run.stats.peripheral_bfs_sweeps, serial_stats.peripheral_bfs_sweeps);
}

TEST(DistRcm, QualityInsensitiveToGridSize) {
  // Paper claim: ordering quality "remains insensitive to the degree of
  // concurrency". Ours is bit-identical, hence exactly insensitive.
  const auto a = gen::relabel_random(gen::grid2d(14, 14), 9);
  const auto l1 = run_dist_order(1, a).labels;
  const auto l4 = run_dist_order(4, a).labels;
  const auto l16 = run_dist_order(16, a).labels;
  EXPECT_EQ(l1, l4);
  EXPECT_EQ(l4, l16);
  EXPECT_LT(sparse::bandwidth_with_labels(a, l1), sparse::bandwidth(a));
}

TEST(DistRcm, LoadBalancePermutationMapsBack) {
  const auto a = gen::relabel_random(gen::grid2d(10, 10), 4);
  DistRcmOptions opt;
  opt.load_balance = true;
  opt.seed = 77;
  const auto run = run_dist_order(4, a, opt);
  // Result is a valid labeling of the ORIGINAL matrix...
  EXPECT_TRUE(sparse::is_valid_permutation(run.labels));
  // ...equal to serial RCM on the relabeled matrix mapped back.
  const auto balance = sparse::random_permutation(a.n(), 77);
  const auto relabeled = sparse::permute_symmetric(a, balance);
  const auto serial = order::rcm_serial(relabeled);
  std::vector<index_t> want(static_cast<std::size_t>(a.n()));
  for (index_t v = 0; v < a.n(); ++v) {
    want[static_cast<std::size_t>(v)] =
        serial[static_cast<std::size_t>(balance[static_cast<std::size_t>(v)])];
  }
  EXPECT_EQ(run.labels, want);
  // Quality is comparable to the unbalanced run (not identical: different
  // tie-breaks), and far better than the input ordering.
  const auto bw = sparse::bandwidth_with_labels(a, run.labels);
  EXPECT_LT(bw, sparse::bandwidth(a) / 2);
}

TEST(DistRcm, RejectsSelfLoopedInput) {
  const auto solver_matrix = gen::with_laplacian_values(gen::path(6));
  EXPECT_THROW(run_dist_order(1, solver_matrix), CheckError);
  // The intended route: strip the diagonal first.
  const auto run = run_dist_order(1, solver_matrix.strip_diagonal());
  EXPECT_TRUE(sparse::is_valid_permutation(run.labels));
}

TEST(DistRcm, ReportCarriesPhaseBreakdown) {
  const auto a = gen::grid2d(12, 12);
  const auto run = run_dist_order(4, a);
  const auto& rep = run.report;
  // All of the paper's Figure-4 phases must have been exercised.
  EXPECT_GT(rep.aggregate(mps::Phase::kPeripheralSpmspv).max.model_total(), 0.0);
  EXPECT_GT(rep.aggregate(mps::Phase::kPeripheralOther).max.model_total(), 0.0);
  EXPECT_GT(rep.aggregate(mps::Phase::kOrderingSpmspv).max.model_total(), 0.0);
  EXPECT_GT(rep.aggregate(mps::Phase::kOrderingSort).max.model_total(), 0.0);
  EXPECT_GT(rep.aggregate(mps::Phase::kOrderingOther).max.model_total(), 0.0);
  EXPECT_GT(rep.modeled_makespan(), 0.0);
}

class DistPeripheralGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, DistPeripheralGrids,
                         ::testing::Values(1, 4, 9, 16));

TEST_P(DistPeripheralGrids, MatchesSerialFinder) {
  const int p = GetParam();
  for (int which : {0, 3, 6, 8, 11}) {
    const auto a = workload(which);
    const auto want = order::pseudo_peripheral_vertex(a, 0);
    Runtime::run(p, [&](Comm& world) {
      dist::ProcGrid2D grid(world);
      dist::DistSpMat mat(grid, a);
      const auto degrees = mat.degrees(grid);
      const auto got = dist_pseudo_peripheral(mat, degrees, 0, grid);
      EXPECT_EQ(got.vertex, want.vertex) << "workload " << which;
      EXPECT_EQ(got.eccentricity, want.eccentricity) << "workload " << which;
      EXPECT_EQ(got.bfs_sweeps, want.bfs_sweeps) << "workload " << which;
    });
  }
}

}  // namespace
}  // namespace drcm::rcm
