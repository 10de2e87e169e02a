// End-to-end and degenerate-input tests across the whole public API
// (included via the umbrella header, which this file also exercises).
#include <gtest/gtest.h>

#include "drcm.hpp"

namespace drcm {
namespace {

namespace gen = sparse::gen;

TEST(EndToEnd, EmptyMatrixThroughEveryStage) {
  const auto a = gen::empty_graph(0);
  EXPECT_TRUE(order::rcm_serial(a).empty());
  EXPECT_TRUE(order::sloan(a).empty());
  EXPECT_TRUE(order::gps(a).empty());
  const auto run = rcm::run_dist_order(4, a);
  EXPECT_TRUE(run.labels.empty());
  EXPECT_EQ(run.stats.components, 0);
  const auto tr = rcm::ExecutionTrace::collect(a);
  EXPECT_EQ(tr.components, 0);
  EXPECT_GE(rcm::project_cost(tr, 24, 6).total(), 0.0);
}

TEST(EndToEnd, SingleVertexThroughEveryStage) {
  const auto a = gen::empty_graph(1);
  EXPECT_EQ(order::rcm_serial(a), (std::vector<index_t>{0}));
  const auto run = rcm::run_dist_order(4, a);
  EXPECT_EQ(run.labels, (std::vector<index_t>{0}));
  EXPECT_EQ(run.stats.components, 1);
}

TEST(EndToEnd, FullPipelineOrderPermuteSolve) {
  // The complete workflow a user would run: scrambled FEM-style system ->
  // distributed RCM -> permuted system -> distributed CG, cheaper than the
  // scrambled solve in both iterations and traffic.
  const auto pattern = gen::relabel_random(gen::random_geometric(600, 0.08, 3), 4);
  const auto run = rcm::run_dist_order(4, pattern);
  ASSERT_TRUE(sparse::is_valid_permutation(run.labels));
  const auto reordered = sparse::permute_symmetric(pattern, run.labels);
  EXPECT_LE(sparse::bandwidth(reordered), sparse::bandwidth(pattern));

  const auto m_before = gen::with_laplacian_values(pattern, 0.05);
  const auto m_after = gen::with_laplacian_values(reordered, 0.05);
  std::vector<double> b(static_cast<std::size_t>(pattern.n()), 1.0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] += 0.01 * static_cast<double>(i % 13);
  }
  const auto before = solver::run_dist_pcg(4, m_before, b, true);
  const auto after = solver::run_dist_pcg(4, m_after, b, true);
  EXPECT_TRUE(before.result.converged);
  EXPECT_TRUE(after.result.converged);
  EXPECT_LE(after.result.iterations, before.result.iterations);
  EXPECT_LE(after.report.aggregate(mps::Phase::kSolver).max.words,
            before.report.aggregate(mps::Phase::kSolver).max.words);
}

TEST(EndToEnd, MatrixMarketRoundTripThroughOrdering) {
  // Write a system out, read it back, order it, and verify the quality
  // metrics survive the round trip exactly.
  const auto a = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(15, 15), 7), 0.1);
  std::stringstream buf;
  sparse::write_matrix_market(buf, a);
  const auto back = sparse::read_matrix_market(buf);
  const auto pattern_a = a.strip_diagonal();
  const auto pattern_b = back.strip_diagonal();
  EXPECT_EQ(order::rcm_serial(pattern_a), order::rcm_serial(pattern_b));
}

TEST(EndToEnd, StatsRecorderAccumulatesAcrossPhases) {
  mps::StatsRecorder rec;
  rec.add_compute(mps::Phase::kOrderingSort, 10.0, 1.0);
  rec.add_compute(mps::Phase::kOrderingSort, 5.0, 0.5);
  rec.add_comm(mps::Phase::kSolver, mps::CommCost{2.0, 3, 4});
  rec.add_wall(mps::Phase::kSolver, 0.25);
  EXPECT_DOUBLE_EQ(rec.phase(mps::Phase::kOrderingSort).compute_units, 15.0);
  EXPECT_DOUBLE_EQ(rec.phase(mps::Phase::kOrderingSort).model_compute_seconds, 1.5);
  EXPECT_EQ(rec.phase(mps::Phase::kSolver).messages, 3u);
  const auto total = rec.total();
  EXPECT_DOUBLE_EQ(total.model_comm_seconds, 2.0);
  EXPECT_DOUBLE_EQ(total.wall_seconds, 0.25);
  rec.reset();
  EXPECT_DOUBLE_EQ(rec.total().compute_units, 0.0);
}

TEST(EndToEnd, PhaseNamesAreUnique) {
  std::set<std::string_view> names;
  for (int p = 0; p < mps::kNumPhases; ++p) {
    names.insert(mps::phase_name(static_cast<mps::Phase>(p)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(mps::kNumPhases));
}

TEST(EndToEnd, RngIsPortablyDeterministic) {
  // Pin the first outputs so cross-platform reproducibility regressions
  // (e.g. a library swap) are caught immediately.
  Rng rng(42);
  const auto a = rng.next_u64();
  const auto b = rng.next_u64();
  Rng rng2(42);
  EXPECT_EQ(rng2.next_u64(), a);
  EXPECT_EQ(rng2.next_u64(), b);
  EXPECT_NE(a, b);
  // Bounds respected and reachable.
  Rng rng3(7);
  bool saw_zero = false, saw_max = false;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng3.next_below(3);
    EXPECT_LT(v, 3u);
    saw_zero |= v == 0;
    saw_max |= v == 2;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
  EXPECT_THROW(rng3.next_below(0), CheckError);
}

TEST(EndToEnd, WallTimerAdvances) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
  const double before = t.seconds();
  t.reset();
  EXPECT_LE(t.seconds(), before);
}

TEST(EndToEnd, CheckMacrosThrowWithContext) {
  try {
    DRCM_CHECK(1 == 2, "the message");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("test_end_to_end"), std::string::npos);
  }
}

TEST(EndToEnd, DisconnectedMixedPipeline) {
  // Components of wildly different character in one matrix.
  const auto a = gen::disjoint_union(
      {gen::relabel_random(gen::grid2d(8, 8), 1), gen::complete(7),
       gen::caterpillar(6, 2), gen::empty_graph(3)});
  const auto serial = order::rcm_serial(a);
  const auto run = rcm::run_dist_order(9, a);
  EXPECT_EQ(run.labels, serial);
  EXPECT_EQ(run.stats.components, 3 + 3);  // three graphs + three isolated
}

}  // namespace
}  // namespace drcm
