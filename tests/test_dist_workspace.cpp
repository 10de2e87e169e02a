// Tests for the per-rank DistWorkspace: the explicit replacement for the
// old `thread_local` SPA inside spmspv.cpp. Two properties are pinned:
// alternating kernels over matrices of different dimensions through ONE
// workspace never cross-contaminates results, and steady-state reuse
// (BFS level after BFS level) stops allocating after warm-up.
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

TEST(ThreadArms, StampedSlotsAreIsolatedBetweenThreads) {
  // Each hybrid thread accumulates into its own stamped SPA: a write
  // through arm t must be invisible to every other arm, and each arm keeps
  // its own min.
  DistWorkspace ws;
  auto spas = ws.thread_spas(3, 16);
  ASSERT_EQ(spas.size(), 3u);
  spas[0].put_min(5, 40);
  spas[1].put_min(5, 7);
  spas[1].put_min(5, 9);  // min-combine keeps 7
  EXPECT_TRUE(spas[0].live(5));
  EXPECT_TRUE(spas[1].live(5));
  EXPECT_FALSE(spas[2].live(5));
  EXPECT_EQ(spas[0].val[5], 40);
  EXPECT_EQ(spas[1].val[5], 7);
  EXPECT_FALSE(spas[0].live(6));
}

TEST(ThreadArms, CheckoutOpensAFreshEpochOnEveryArm) {
  // No cross-call state leakage: values written in one hybrid multiply
  // must be dead at the next checkout, including over a smaller row range
  // (the shrinking-matrix hazard the per-rank workspace exists to kill).
  DistWorkspace ws;
  auto spas = ws.thread_spas(2, 32);
  spas[0].put_min(3, 1);
  spas[1].put_min(3, 2);
  auto again = ws.thread_spas(2, 8);
  EXPECT_FALSE(again[0].live(3));
  EXPECT_FALSE(again[1].live(3));
  auto stripes = ws.thread_stripes(2);
  stripes[0].emit.push_back(VecEntry{1, 1});
  stripes[1].touched.push_back(3);
  auto stripes_again = ws.thread_stripes(2);
  EXPECT_TRUE(stripes_again[0].emit.empty());
  EXPECT_TRUE(stripes_again[1].touched.empty());
}

TEST(ThreadArms, TouchedRowListsClearAtCheckoutAndCountCapacity) {
  // The output-sensitive hybrid merge records first-touched rows per thread;
  // the lists must behave like every other stripe buffer: cleared at
  // checkout with capacity retained, growth observed by the realloc ledger.
  DistWorkspace ws;
  auto stripes = ws.thread_stripes(2);
  stripes[0].touched.assign(64, 5);
  stripes[1].gather.assign(32, 7);
  const auto touched_cap = stripes[0].touched.capacity();
  auto again = ws.thread_stripes(2);
  EXPECT_TRUE(again[0].touched.empty());
  EXPECT_TRUE(again[1].gather.empty());
  EXPECT_EQ(again[0].touched.capacity(), touched_cap);
  // The growth was observed at that checkout; steady reuse is then free.
  const u64 settled = ws.reallocations();
  auto steady = ws.thread_stripes(2);
  steady[0].touched.assign(64, 9);
  steady[1].gather.assign(32, 9);
  ws.thread_stripes(2);
  EXPECT_EQ(ws.reallocations(), settled);
}

TEST(ThreadArms, SparseAndDenseMergeRegimesEmitIdenticalEntries) {
  // The hybrid merge switches between the touched-row (sparse) and
  // dense-stripe scans on the team's touched total; both regimes — and
  // every thread count — must emit exactly the flat multiply's entries
  // (which come in first-touch order, so they are sorted for the
  // comparison) and charge the same units. A 1-entry frontier exercises
  // the sparse branch, the full frontier the dense branch.
  const auto a = gen::grid3d(5, 5, 6);
  Runtime::run(1, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    for (const index_t stride : {a.n(), index_t{7}, index_t{1}}) {
      std::vector<VecEntry> frontier;
      for (index_t v = 0; v < a.n(); v += stride) {
        frontier.push_back(VecEntry{v, a.n() - v});
      }
      DistWorkspace serial_ws;
      double w0 = 0;
      auto want = spmspv_local_multiply(mat, frontier, serial_ws, &w0, 1);
      std::sort(want.begin(), want.end(), idx_less);
      for (const int threads : {2, 3, 6}) {
        DistWorkspace ws;
        double w1 = 0;
        const auto got = spmspv_local_multiply(mat, frontier, ws, &w1, threads);
        ASSERT_EQ(got, want) << "threads=" << threads << " stride=" << stride;
        EXPECT_EQ(w1, w0);  // modeled units are thread-invariant
      }
    }
  });
}

TEST(ThreadArms, ReallocAccountingAcrossThreadCountChanges) {
  // Growing the thread count allocates (and is counted); shrinking
  // retains the extra arms' storage and re-growing back must be free, so a
  // rank alternating hybrid and flat calls settles like any other buffer.
  DistWorkspace ws;
  const auto warm = [&](std::size_t threads) {
    auto spas = ws.thread_spas(threads, 64);
    auto stripes = ws.thread_stripes(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      spas[t].put_min(t, 1);
      stripes[t].emit.assign(16, VecEntry{0, 0});
      stripes[t].touched.assign(8, 0);
    }
  };
  warm(6);
  warm(6);  // capacities observed at the second checkout
  const u64 settled = ws.reallocations();
  warm(2);  // shrink: arms 2..5 untouched, nothing may be counted
  EXPECT_EQ(ws.reallocations(), settled);
  warm(6);  // re-grow to a warm size: still free
  EXPECT_EQ(ws.reallocations(), settled);
  warm(8);  // genuinely new arms must be counted
  EXPECT_GT(ws.reallocations(), settled);
  warm(8);
  const u64 settled8 = ws.reallocations();
  warm(8);
  EXPECT_EQ(ws.reallocations(), settled8);
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
  for (const int threads : {1, 3}) {  // flat and hybrid paths
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
              << "standalone p=" << p << " threads=" << threads
              << " round=" << round << " big=" << use_big;
          const auto step = [&](DistWorkspace& ws) {
            return bfs_level_step(mat, x, dense, kNoVertex, grid,
                                  mps::Phase::kOrderingSpmspv,
                                  mps::Phase::kOrderingOther, &ws)
                .next.entries();
          };
          DistWorkspace fresh_fused;
          ASSERT_EQ(step(shared), step(fresh_fused))
              << "fused p=" << p << " threads=" << threads
              << " round=" << round << " big=" << use_big;
        }
      }
    }, {}, threads);
  }
}

TEST_P(WorkspaceGrids, SteadyStateLevelsStopAllocatingAfterWarmup) {
  // One full BFS (every level shape the matrix can produce) warms every
  // buffer; a second identical traversal must not grow anything. Run flat
  // and hybrid: the per-thread arms must settle like every other buffer.
  const int p = GetParam();
  const auto a = gen::relabel_random(gen::grid2d(14, 14), 3);
  for (const int threads : {1, 6}) {
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
      run_both();  // hybrid emit capacities can still be observed growing
      const u64 warm = grid.workspace().reallocations();
      EXPECT_GT(warm, 0u);
      run_both();
      run_both();
      EXPECT_EQ(grid.workspace().reallocations(), warm)
          << "steady-state BFS levels must reuse workspace buffers"
          << " (threads=" << threads << ")";
    }, {}, threads);
  }
}

TEST_P(WorkspaceGrids, FusedTouchedBuffersSettleAfterWarmup) {
  // The fused level's touched lists — the flat SPA's rows and the owner
  // merge's filled slots — are workspace buffers like any other: one BFS
  // warms them and identical traversals afterwards must reuse them with
  // zero reallocations. At six threads the local multiply runs the
  // per-thread stripes, so only the owner merge's list is in play there.
  const int p = GetParam();
  const auto a = gen::grid3d(4, 4, 12, gen::Stencil3d::k27);
  for (const int threads : {1, 6}) {
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
      EXPECT_GT(merge_cap, 0u) << "threads=" << threads;
      if (threads == 1) EXPECT_GT(spa_cap, 0u);
      bfs();
      bfs();
      EXPECT_EQ(ws.reallocations(), warm) << "threads=" << threads;
      EXPECT_EQ(ws.merge_touched().capacity(), merge_cap);
      EXPECT_EQ(ws.spa_touched().capacity(), spa_cap);
    }, {}, threads);
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
