// Tests for the execution-trace collector and the cost projection.
#include <gtest/gtest.h>

#include "order/rcm_serial.hpp"
#include "rcm/trace_model.hpp"
#include "sparse/generators.hpp"
#include "sparse/graph_algo.hpp"

namespace drcm::rcm {
namespace {

namespace gen = sparse::gen;

TEST(Trace, PathTraceShape) {
  const auto a = gen::path(20);
  const auto tr = ExecutionTrace::collect(a);
  EXPECT_EQ(tr.n, 20);
  EXPECT_EQ(tr.components, 1);
  EXPECT_EQ(tr.pseudo_diameter, 19);
  // Ordering BFS has 20 levels of one vertex each.
  EXPECT_EQ(tr.ordering_levels.size(), 20u);
  for (const auto& l : tr.ordering_levels) EXPECT_EQ(l.frontier, 1);
}

TEST(Trace, SweepCountMatchesSerialStats) {
  for (int which = 0; which < 4; ++which) {
    const auto a = which == 0   ? gen::grid2d(10, 10)
                   : which == 1 ? gen::erdos_renyi(150, 4.0, 2)
                   : which == 2 ? gen::relabel_random(gen::grid3d(4, 4, 5), 3)
                                : gen::disjoint_union({gen::path(7), gen::cycle(8)});
    order::OrderingStats stats;
    order::rcm_serial(a, &stats);
    const auto tr = ExecutionTrace::collect(a);
    EXPECT_EQ(tr.components, stats.components) << which;
    EXPECT_EQ(tr.peripheral_sweeps, stats.peripheral_bfs_sweeps) << which;
  }
}

TEST(Trace, OrderingLevelsCoverEveryVertexOnce) {
  const auto a = gen::relabel_random(gen::grid2d(12, 9), 8);
  const auto tr = ExecutionTrace::collect(a);
  index_t total = 0;
  for (const auto& l : tr.ordering_levels) total += l.frontier;
  EXPECT_EQ(total, a.n());
  // Expansion totals the full edge count (each vertex expanded once).
  index_t expansion = 0;
  for (const auto& l : tr.ordering_levels) expansion += l.expansion;
  EXPECT_EQ(expansion, a.nnz());
}

TEST(Trace, PseudoDiameterMatchesGraphAlgo) {
  const auto a = gen::grid2d(15, 7);
  const auto tr = ExecutionTrace::collect(a);
  // Both run George-Liu with the same tie-breaks from the same seed rule
  // (min-degree vertex = a corner for this grid).
  EXPECT_EQ(tr.pseudo_diameter, sparse::pseudo_diameter(a, 0));
}

TEST(Trace, IsolatedVerticesAreComponents) {
  const auto a = gen::empty_graph(3);
  const auto tr = ExecutionTrace::collect(a);
  EXPECT_EQ(tr.components, 3);
  EXPECT_EQ(tr.pseudo_diameter, 0);
}

TEST(Trace, SpeculativeSweepsSplitTheLevels) {
  // George-Liu takes three sweeps on this small world: the first is a
  // plain BFS, the second a speculative CM sweep that the third
  // supersedes (discarded), the third the ordering itself. Each sweep
  // covers the component exactly once.
  const auto a = gen::small_world(80, 2, 0.1, 4);
  const auto tr = ExecutionTrace::collect(a);
  EXPECT_EQ(tr.peripheral_sweeps, 3);
  const auto covered = [](const std::vector<LevelTrace>& levels) {
    index_t total = 0;
    for (const auto& l : levels) total += l.frontier;
    return total;
  };
  EXPECT_EQ(covered(tr.peripheral_levels), a.n());
  EXPECT_EQ(covered(tr.discarded_levels), a.n());
  EXPECT_EQ(covered(tr.ordering_levels), a.n());
  // A path needs two sweeps: nothing is discarded.
  EXPECT_TRUE(ExecutionTrace::collect(gen::path(20)).discarded_levels.empty());
}

TEST(CostModel, CrossingsFollowTheSpeculativeSearch) {
  // path(20): seed 0, a plain BFS of eccentricity 19 (20 levels x 2 + the
  // empty call's 1 = 41), one candidate argmin (1) and the seed scan (1)
  // on the peripheral side; the speculative sweep from 19 is the ordering
  // — 19 full CM levels x 3 + the terminal level's 2 — plus the final
  // label allgatherv (1). Crossings do not depend on the core count.
  const auto tr = ExecutionTrace::collect(gen::path(20));
  for (const int cores : {1, 4, 24}) {
    const auto c = project_cost(tr, cores, 1);
    EXPECT_EQ(c.peripheral_crossings(), 43u) << cores;
    EXPECT_EQ(c.ordering_crossings(), 60u) << cores;
  }
  // Isolated vertices: one plain sweep each (2 + 1), the fixpoint argmin
  // (1), the seed scan (1) and a one-level CM pass (2) per component.
  const auto iso =
      project_cost(ExecutionTrace::collect(gen::empty_graph(3)), 4, 1);
  EXPECT_EQ(iso.peripheral_crossings(), 3u * 5);
  EXPECT_EQ(iso.ordering_crossings(), 3u * 2 + 1);
}

TEST(CostModel, SingleCoreIsPureCompute) {
  const auto tr = ExecutionTrace::collect(gen::grid2d(20, 20));
  const auto c = project_cost(tr, 1, 1);
  EXPECT_GT(c.total(), 0.0);
  EXPECT_DOUBLE_EQ(c.spmspv().comm, 0.0);
  EXPECT_DOUBLE_EQ(c.ordering_sort.comm, 0.0);
}

TEST(CostModel, ComputeShrinksWithCores) {
  const auto tr = ExecutionTrace::collect(gen::grid2d(30, 30));
  const auto c1 = project_cost(tr, 1, 1);
  const auto c64 = project_cost(tr, 64, 1);
  EXPECT_NEAR(c64.spmspv().compute, c1.spmspv().compute / 64.0, 1e-12);
}

TEST(CostModel, SortLatencyGrowsWithCores) {
  // The paper: "SORTPERM starts to dominate on high concurrency because it
  // performs an AllToAll among all processes".
  const auto tr = ExecutionTrace::collect(gen::relabel_random(gen::grid2d(40, 40), 1));
  const auto low = project_cost(tr, 24, 6);
  const auto high = project_cost(tr, 4056, 6);
  EXPECT_GT(high.ordering_sort.comm, low.ordering_sort.comm);
  // At the high end, sort communication outweighs its computation.
  EXPECT_GT(high.ordering_sort.comm, high.ordering_sort.compute);
}

TEST(CostModel, CommunicationCrossoverExists) {
  // Figure 5: computation dominates at low p; communication at high p.
  const auto tr = ExecutionTrace::collect(gen::relabel_random(gen::grid3d(12, 12, 12), 2));
  const auto low = project_cost(tr, 6, 6);
  const auto high = project_cost(tr, 4056, 6);
  EXPECT_GT(low.spmspv().compute, low.spmspv().comm);
  EXPECT_GT(high.spmspv().comm, high.spmspv().compute);
}

TEST(CostModel, HybridBeatsFlatAtScale) {
  // Figure 6: flat MPI is several times slower than 6-thread hybrid at
  // thousands of cores (the sort's alltoall spans 6x more processes).
  const auto tr = ExecutionTrace::collect(gen::relabel_random(gen::grid2d(64, 64), 3));
  const auto flat = project_cost(tr, 4056, 1);
  const auto hybrid = project_cost(tr, 4056, 6);
  EXPECT_GT(flat.total(), 2.0 * hybrid.total());
  // At a single core the two configurations coincide.
  const auto f1 = project_cost(tr, 1, 1);
  EXPECT_NEAR(f1.total(), project_cost(tr, 1, 1).total(), 1e-15);
}

TEST(CostModel, HighDiameterScalesWorse) {
  // Figure 4 narrative: ldoor-like (high diameter) stops scaling before
  // low-diameter graphs of similar size.
  const auto elongated = gen::grid3d(6, 6, 300);   // high diameter
  const auto compact = gen::grid3d(22, 22, 22);    // low diameter, similar n
  const auto tr_hi = ExecutionTrace::collect(elongated);
  const auto tr_lo = ExecutionTrace::collect(compact);
  const auto speedup = [](const ExecutionTrace& tr, int cores) {
    return project_cost(tr, 1, 1).total() / project_cost(tr, cores, 6).total();
  };
  EXPECT_GT(speedup(tr_lo, 1014), speedup(tr_hi, 1014));
}

TEST(CostModel, RejectsBadConfigurations) {
  const auto tr = ExecutionTrace::collect(gen::path(4));
  EXPECT_THROW(project_cost(tr, 0, 1), CheckError);
  EXPECT_THROW(project_cost(tr, 4, 0), CheckError);
  EXPECT_THROW(project_cost(tr, 4, 8), CheckError);
}

TEST(CostModel, BreakdownComponentsAreNonNegative) {
  const auto tr = ExecutionTrace::collect(gen::erdos_renyi(300, 8.0, 5));
  for (int cores : {1, 6, 24, 216, 1014}) {
    const auto c = project_cost(tr, cores, cores >= 6 ? 6 : 1);
    EXPECT_GE(c.peripheral_spmspv.total(), 0.0);
    EXPECT_GE(c.peripheral_other.total(), 0.0);
    EXPECT_GE(c.ordering_spmspv.total(), 0.0);
    EXPECT_GE(c.ordering_sort.total(), 0.0);
    EXPECT_GE(c.ordering_other.total(), 0.0);
    EXPECT_GT(c.total(), 0.0);
  }
}

}  // namespace
}  // namespace drcm::rcm
