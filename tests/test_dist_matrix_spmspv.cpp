// Tests for the 2D-distributed matrix and the (select2nd, min) SpMSpV,
// validated against a serial reference on many grids and workloads.
#include <gtest/gtest.h>

#include <map>

#include "dist/dist_matrix.hpp"
#include "dist/level_kernel.hpp"
#include "dist/spmspv.hpp"
#include "mpsim/runtime.hpp"
#include "sparse/generators.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;
using sparse::CsrMatrix;
namespace gen = sparse::gen;

/// Serial reference: y[i] = min over frontier neighbors j of value(j).
std::map<index_t, index_t> reference_spmspv(
    const CsrMatrix& a, const std::vector<VecEntry>& frontier) {
  std::map<index_t, index_t> out;
  for (const auto& [j, val] : frontier) {
    for (const index_t i : a.row(j)) {
      auto [it, inserted] = out.emplace(i, val);
      if (!inserted && val < it->second) it->second = val;
    }
  }
  return out;
}

/// Builds the distributed frontier from a global entry list (each rank
/// keeps what it owns), runs SpMSpV, and gathers the result.
std::vector<VecEntry> run_spmspv(int p, const CsrMatrix& a,
                                 const std::vector<VecEntry>& frontier) {
  std::vector<VecEntry> global_out;
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    DistSpVec x(mat.vec_dist(), grid);
    std::vector<VecEntry> mine;
    for (const auto& e : frontier) {
      if (e.idx >= x.lo() && e.idx < x.hi()) mine.push_back(e);
    }
    x.assign(mine);
    const auto y = spmspv_select2nd_min(mat, x, grid);
    const auto gathered = y.to_global(world);
    if (world.rank() == 0) global_out = gathered;
    // Every output entry must be locally owned.
    for (const auto& e : y.entries()) {
      EXPECT_TRUE(e.idx >= y.lo() && e.idx < y.hi());
    }
  });
  return global_out;
}

void expect_matches_reference(int p, const CsrMatrix& a,
                              const std::vector<VecEntry>& frontier,
                              const char* what) {
  const auto got = run_spmspv(p, a, frontier);
  const auto want = reference_spmspv(a, frontier);
  ASSERT_EQ(got.size(), want.size()) << what << " p=" << p;
  std::size_t i = 0;
  for (const auto& [idx, val] : want) {
    EXPECT_EQ(got[i].idx, idx) << what << " p=" << p;
    EXPECT_EQ(got[i].val, val) << what << " p=" << p;
    ++i;
  }
}

class DistMatrixGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, DistMatrixGrids, ::testing::Values(1, 4, 9, 16));

TEST_P(DistMatrixGrids, BlocksTileTheMatrix) {
  const int p = GetParam();
  const auto a = gen::grid2d_9pt(7, 6);
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    EXPECT_EQ(mat.n(), a.n());
    EXPECT_EQ(mat.global_nnz(world), a.nnz());
    // Local block bounds come from the chunk boundaries.
    EXPECT_EQ(mat.row_lo(), mat.vec_dist().chunk_lo(grid.row()));
    EXPECT_EQ(mat.col_hi(), mat.vec_dist().chunk_lo(grid.col() + 1));
  });
}

TEST_P(DistMatrixGrids, DegreesMatchSerial) {
  const int p = GetParam();
  const auto a = gen::erdos_renyi(83, 5.0, 3);
  const auto want = a.degrees();
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    const auto d = mat.degrees(grid);
    const auto got = d.to_global(world);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got, want);
  });
}

TEST_P(DistMatrixGrids, SpmspvSingleSource) {
  const int p = GetParam();
  const auto a = gen::grid2d(6, 6);
  expect_matches_reference(p, a, {VecEntry{14, 0}}, "grid single");
}

TEST_P(DistMatrixGrids, SpmspvMultiSourceMinWins) {
  const int p = GetParam();
  const auto a = gen::grid2d(6, 6);
  // Two adjacent sources with different labels: shared neighbors must take
  // the minimum label (paper Fig. 2 semantics).
  expect_matches_reference(p, a, {VecEntry{14, 7}, VecEntry{15, 3}},
                           "grid multi");
}

TEST_P(DistMatrixGrids, SpmspvOnRandomGraphs) {
  const int p = GetParam();
  for (u64 seed : {1u, 2u}) {
    const auto a = gen::erdos_renyi(60, 6.0, seed);
    std::vector<VecEntry> frontier;
    for (index_t v = 0; v < a.n(); v += 5) {
      frontier.push_back(VecEntry{v, 100 - v});
    }
    expect_matches_reference(p, a, frontier, "er");
  }
}

TEST_P(DistMatrixGrids, SpmspvEmptyFrontier) {
  const int p = GetParam();
  const auto a = gen::grid2d(4, 4);
  const auto got = run_spmspv(p, a, {});
  EXPECT_TRUE(got.empty());
}

TEST_P(DistMatrixGrids, SpmspvIsolatedVertexYieldsNothing) {
  const int p = GetParam();
  const auto a = gen::disjoint_union({gen::empty_graph(3), gen::path(9)});
  const auto got = run_spmspv(p, a, {VecEntry{0, 5}});
  EXPECT_TRUE(got.empty());
}

TEST_P(DistMatrixGrids, SpmspvFullFrontierTouchesEverything) {
  const int p = GetParam();
  const auto a = gen::cycle(30);
  std::vector<VecEntry> frontier;
  for (index_t v = 0; v < 30; ++v) frontier.push_back(VecEntry{v, v});
  expect_matches_reference(p, a, frontier, "cycle full");
}

TEST_P(DistMatrixGrids, SpmspvChargesPhaseCosts) {
  const int p = GetParam();
  const auto a = gen::grid2d(8, 8);
  const auto report = Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    DistSpVec x(mat.vec_dist(), grid);
    if (x.lo() <= 20 && 20 < x.hi()) {
      x.assign({VecEntry{20, 0}});
    }
    mps::PhaseScope scope(world, mps::Phase::kOrderingSpmspv);
    spmspv_select2nd_min(mat, x, grid);
  });
  const auto agg = report.aggregate(mps::Phase::kOrderingSpmspv);
  EXPECT_GT(agg.max.model_compute_seconds, 0.0);
  if (p > 1) {
    EXPECT_GT(agg.max.model_comm_seconds, 0.0);
  }
}

TEST_P(DistMatrixGrids, FusedExpansionMatchesTheSerialReference) {
  // The fused level kernel (unsorted partials min-merged at their owners,
  // the kept level sorted last) must expand a frontier into the serial
  // reference. SET refreshes the frontier's values from `dense`, which
  // holds the frontier values on its support and the keep sentinel
  // elsewhere, so SELECT drops exactly the frontier's own rows.
  const int p = GetParam();
  const auto a = gen::rmat(6, 6, 13);
  std::vector<VecEntry> frontier;
  for (index_t v = 0; v < a.n(); v += 3) frontier.push_back(VecEntry{v, v + 1});
  std::vector<VecEntry> want;
  for (const auto& [i, val] : reference_spmspv(a, frontier)) {
    if (i % 3 != 0) want.push_back(VecEntry{i, val});
  }
  std::vector<VecEntry> fused_all;
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, a);
    DistSpVec x(mat.vec_dist(), grid);
    DistDenseVec dense(mat.vec_dist(), grid, kNoVertex);
    std::vector<VecEntry> mine;
    for (const auto& e : frontier) {
      if (e.idx >= x.lo() && e.idx < x.hi()) {
        mine.push_back(e);
        dense.set(e.idx, e.val);
      }
    }
    x.assign(mine);
    const auto fused = bfs_level_step(mat, x, dense, kNoVertex, grid,
                                      mps::Phase::kOrderingSpmspv,
                                      mps::Phase::kOrderingOther);
    const auto f = fused.next.to_global(world);
    if (world.rank() == 0) fused_all = f;
  });
  EXPECT_EQ(fused_all, want) << "p=" << p;
}

TEST(DistMatrix, MismatchedVectorDistributionThrows) {
  Runtime::run(4, [](Comm& world) {
    ProcGrid2D grid(world);
    DistSpMat mat(grid, gen::grid2d(5, 5));
    VectorDist wrong(7, grid.q());
    DistSpVec x(wrong, grid);
    EXPECT_THROW(spmspv_select2nd_min(mat, x, grid), CheckError);
  });
}

}  // namespace
}  // namespace drcm::dist
