// Tests for the per-rank DistWorkspace: the explicit replacement for the
// old `thread_local` SPA inside spmspv.cpp. Three properties are pinned:
// alternating kernels over matrices of different dimensions through ONE
// workspace never cross-contaminates results, steady-state reuse (BFS
// level after BFS level) stops allocating after warm-up, and a whole
// ordering runs in its caller's grid workspace.
#include "dist/workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dist/dist_matrix.hpp"
#include "dist/level_kernel.hpp"
#include "dist/primitives.hpp"
#include "dist/spmspv.hpp"
#include "mpsim/runtime.hpp"
#include "rcm/dist_bfs.hpp"
#include "rcm/dist_rcm.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;
namespace gen = sparse::gen;

TEST(StampedSlots, ShrinkingReuseCannotSeeStaleState) {
  StampedSlots s;
  s.begin(100);
  for (std::size_t i = 0; i < 100; ++i) s.put_min(i, 7);
  // A later, smaller epoch: every slot starts dead even though the storage
  // still physically holds the previous epoch's values.
  s.begin(10);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_FALSE(s.live(i));
  s.put_min(3, 5);
  s.put_min(3, 9);  // min-combine keeps 5
  EXPECT_TRUE(s.live(3));
  EXPECT_EQ(s.val[3], 5);
  EXPECT_FALSE(s.live(4));
}

TEST(StampedSlots, GrowthReportsReallocation) {
  StampedSlots s;
  EXPECT_TRUE(s.begin(8));
  EXPECT_FALSE(s.begin(8));
  EXPECT_FALSE(s.begin(4));
  EXPECT_TRUE(s.begin(16));
}

/// Frontier over every stride-th owned vertex, values distinct per vertex.
std::vector<VecEntry> owned_frontier(const DistSpVec& shape, index_t n,
                                     index_t stride) {
  std::vector<VecEntry> mine;
  for (index_t v = 0; v < n; v += stride) {
    if (v >= shape.lo() && v < shape.hi()) mine.push_back(VecEntry{v, n - v});
  }
  return mine;
}

class WorkspaceGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, WorkspaceGrids, ::testing::Values(1, 4));

TEST_P(WorkspaceGrids, TwoMatrixSizesAlternateWithoutCrossContamination) {
  // The hazard the workspace object fixes: under the thread_local SPA, a
  // big matrix inflated the shared buffer and a small matrix reused it
  // blind. Alternate standalone SpMSpV calls and fused level steps of two
  // differently-sized matrices through ONE shared workspace and demand
  // bit-identical results to calls made with a fresh workspace each time.
  const int p = GetParam();
  const auto big = gen::grid3d(6, 5, 5);   // n = 150
  const auto small = gen::path(37);        // n = 37
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat_big(grid, big);
    DistSpMat mat_small(grid, small);
    DistSpVec x_big(mat_big.vec_dist(), grid);
    DistSpVec x_small(mat_small.vec_dist(), grid);
    DistDenseVec dense_big(mat_big.vec_dist(), grid, kNoVertex);
    DistDenseVec dense_small(mat_small.vec_dist(), grid, kNoVertex);
    // Every fourth vertex "visited" with a distinct value: the fused SET
    // publishes varied parent values and SELECT has real work.
    for (auto* dense : {&dense_big, &dense_small}) {
      for (index_t g = dense->lo(); g < dense->hi(); ++g) {
        if (g % 4 == 0) dense->set(g, g);
      }
    }
    DistWorkspace shared;
    for (int round = 0; round < 4; ++round) {
      x_big.assign(owned_frontier(x_big, big.n(), 2 + round));
      x_small.assign(owned_frontier(x_small, small.n(), 1 + round));
      for (bool use_big : {true, false, true}) {
        const auto& mat = use_big ? mat_big : mat_small;
        const auto& x = use_big ? x_big : x_small;
        const auto& dense = use_big ? dense_big : dense_small;
        DistWorkspace fresh;
        const auto got = spmspv_select2nd_min(mat, x, grid, &shared);
        const auto want = spmspv_select2nd_min(mat, x, grid, &fresh);
        ASSERT_EQ(got.entries(), want.entries())
            << "standalone p=" << p << " round=" << round
            << " big=" << use_big;
        const auto step = [&](DistWorkspace& ws) {
          return bfs_level_step(mat, x, dense, kNoVertex, grid,
                                mps::Phase::kOrderingSpmspv,
                                mps::Phase::kOrderingOther, &ws)
              .next.entries();
        };
        DistWorkspace fresh_fused;
        ASSERT_EQ(step(shared), step(fresh_fused))
            << "fused p=" << p << " round=" << round << " big=" << use_big;
      }
    }
  });
}

TEST_P(WorkspaceGrids, SteadyStateLevelsStopAllocatingAfterWarmup) {
  // One full BFS (every level shape the matrix can produce) warms every
  // buffer; a second identical traversal must not grow anything.
  const int p = GetParam();
  const auto a = gen::relabel_random(gen::grid2d(14, 14), 3);
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    const auto degrees = mat.degrees(grid);
    const auto run_both = [&] {
      DistDenseVec levels(mat.vec_dist(), grid, kNoVertex);
      rcm::dist_bfs(mat, 0, levels, grid, mps::Phase::kPeripheralSpmspv,
                    mps::Phase::kPeripheralOther);
      DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);
      rcm::dist_cm_component(mat, degrees, labels, 0, 0, grid);
    };
    run_both();
    run_both();
    const u64 warm = grid.workspace().reallocations();
    EXPECT_GT(warm, 0u);
    run_both();
    run_both();
    EXPECT_EQ(grid.workspace().reallocations(), warm)
        << "steady-state BFS levels must reuse workspace buffers";
  });
}

TEST_P(WorkspaceGrids, FusedTouchedBuffersSettleAfterWarmup) {
  // The fused level's touched lists — the flat SPA's rows and the owner
  // merge's filled slots — are workspace buffers like any other: one BFS
  // warms them and identical traversals afterwards must reuse them with
  // zero reallocations.
  const int p = GetParam();
  const auto a = gen::grid3d(4, 4, 12, gen::Stencil3d::k27);
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    DistWorkspace ws;
    const auto bfs = [&] {
      DistDenseVec levels(mat.vec_dist(), grid, kNoVertex);
      if (levels.owns(0)) levels.set(0, 0);
      DistSpVec frontier(mat.vec_dist(), grid);
      if (frontier.lo() == 0 && frontier.hi() > 0) {
        frontier.assign({VecEntry{0, 0}});
      }
      for (index_t depth = 1;; ++depth) {
        auto step = bfs_level_step(mat, frontier, levels, kNoVertex, grid,
                                   mps::Phase::kPeripheralSpmspv,
                                   mps::Phase::kPeripheralOther, &ws);
        if (step.frontier_nnz == 0) break;
        step.next.fill_values(depth);
        scatter_into_dense(levels, step.next, world);
        frontier = std::move(step.next);
      }
      // Checkouts surface growth the last level's push_backs caused.
      ws.spa_touched();
      ws.merge_touched();
    };
    bfs();
    bfs();
    const u64 warm = ws.reallocations();
    const auto merge_cap = ws.merge_touched().capacity();
    const auto spa_cap = ws.spa_touched().capacity();
    EXPECT_GT(merge_cap, 0u);
    EXPECT_GT(spa_cap, 0u);
    bfs();
    bfs();
    EXPECT_EQ(ws.reallocations(), warm);
    EXPECT_EQ(ws.merge_touched().capacity(), merge_cap);
    EXPECT_EQ(ws.spa_touched().capacity(), spa_cap);
  });
}

TEST(Workspace, DistOrderWarmsTheCallersGridWorkspace) {
  // dist_order orders on the caller's grid, so its scratch lives in that
  // grid's workspace: the first ordering grows it, and a repeat ordering
  // of the same matrix on the same grid reuses every buffer.
  const auto a = gen::disjoint_union(
      {gen::relabel_random(gen::grid2d(14, 14), 3), gen::path(10),
       gen::empty_graph(2)});
  const auto want = rcm::run_dist_order(1, a).labels;
  for (const int p : {1, 4, 9}) {
    Runtime::run(p, [&](Comm& world) {
      ProcGrid2D grid(world);
      const u64 fresh = grid.workspace().reallocations();
      EXPECT_EQ(rcm::dist_order(grid, a), want) << "p=" << p;
      const u64 warm = grid.workspace().reallocations();
      EXPECT_GT(warm, fresh) << "p=" << p;
      EXPECT_EQ(rcm::dist_order(grid, a), want) << "p=" << p;
      EXPECT_EQ(grid.workspace().reallocations(), warm)
          << "a repeat ordering must reuse the grid's buffers, p=" << p;
    });
  }
}

TEST(Workspace, RouteBuffersKeepCapacityAcrossCheckouts) {
  DistWorkspace ws;
  auto& route = ws.entry_route(4);
  route[2].assign(100, VecEntry{0, 0});
  const auto cap = route[2].capacity();
  auto& again = ws.entry_route(4);
  EXPECT_EQ(&again, &route);
  EXPECT_TRUE(again[2].empty());
  EXPECT_EQ(again[2].capacity(), cap);
}

TEST(Workspace, ReallocationCounterSettles) {
  DistWorkspace ws;
  for (int i = 0; i < 3; ++i) {
    auto& s = ws.frontier_scratch();
    s.assign(64, VecEntry{1, 1});
    ws.index_scratch(128);
    ws.spa(256);
  }
  const u64 settled = ws.reallocations();
  for (int i = 0; i < 5; ++i) {
    auto& s = ws.frontier_scratch();
    s.assign(64, VecEntry{1, 1});
    ws.index_scratch(128);
    ws.spa(256);
  }
  EXPECT_EQ(ws.reallocations(), settled);
}

}  // namespace
}  // namespace drcm::dist
