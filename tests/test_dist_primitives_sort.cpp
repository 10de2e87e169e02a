// Tests for the Table-I primitives and the distributed SORTPERM sorts.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "dist/primitives.hpp"
#include "dist/sortperm.hpp"
#include "mpsim/runtime.hpp"
#include "sparse/generators.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;

class PrimGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, PrimGrids, ::testing::Values(1, 4, 9, 16));

/// Builds an aligned (sparse, dense) pair on a 2D grid for primitive tests.
struct Fixture {
  ProcGrid2D grid;
  VectorDist dist;
  DistDenseVec dense;
  DistSpVec sparse;

  Fixture(Comm& world, index_t n)
      : grid(world), dist(n, grid.q()), dense(dist, grid, kNoVertex),
        sparse(dist, grid) {}
};

TEST_P(PrimGrids, ScatterIntoDense) {
  Runtime::run(GetParam(), [](Comm& world) {
    Fixture f(world, 29);
    std::vector<VecEntry> mine;
    for (index_t g = f.sparse.lo(); g < f.sparse.hi(); ++g) {
      if (g % 3 == 0) mine.push_back(VecEntry{g, g * 2});
    }
    f.sparse.assign(mine);
    scatter_into_dense(f.dense, f.sparse, world);
    for (index_t g = f.dense.lo(); g < f.dense.hi(); ++g) {
      EXPECT_EQ(f.dense.get(g), g % 3 == 0 ? g * 2 : kNoVertex);
    }
  });
}

TEST_P(PrimGrids, ReduceArgminFindsGlobalMinWithTies) {
  Runtime::run(GetParam(), [](Comm& world) {
    Fixture f(world, 37);
    // Dense "degrees": v -> 5 for v in {10, 20}, else 9. Support: all.
    std::vector<VecEntry> mine;
    for (index_t g = f.sparse.lo(); g < f.sparse.hi(); ++g) {
      f.dense.set(g, (g == 10 || g == 20) ? 5 : 9);
      mine.push_back(VecEntry{g, 0});
    }
    f.sparse.assign(mine);
    const auto [deg, v] = reduce_argmin(f.sparse, f.dense, world);
    EXPECT_EQ(deg, 5);
    EXPECT_EQ(v, 10);  // tie broken to the smaller id
  });
}

TEST_P(PrimGrids, ReduceArgminEmptySupport) {
  Runtime::run(GetParam(), [](Comm& world) {
    Fixture f(world, 12);
    const auto [deg, v] = reduce_argmin(f.sparse, f.dense, world);
    EXPECT_EQ(deg, kNoVertex);
    EXPECT_EQ(v, kNoVertex);
  });
}

TEST_P(PrimGrids, ArgminUnvisitedSkipsVisited) {
  Runtime::run(GetParam(), [](Comm& world) {
    Fixture f(world, 31);
    DistDenseVec key(f.dist, f.grid, 0);
    for (index_t g = f.dense.lo(); g < f.dense.hi(); ++g) {
      f.dense.set(g, g < 15 ? 1 : kNoVertex);  // first 15 visited
      key.set(g, 100 - g);                     // decreasing keys
    }
    const auto [k, v] = argmin_unvisited(f.dense, key, world);
    EXPECT_EQ(v, 30);  // smallest key among unvisited = largest id
    EXPECT_EQ(k, 70);
  });
}

TEST_P(PrimGrids, ArgminUnvisitedAllVisited) {
  Runtime::run(GetParam(), [](Comm& world) {
    Fixture f(world, 9);
    DistDenseVec key(f.dist, f.grid, 3);
    for (index_t g = f.dense.lo(); g < f.dense.hi(); ++g) f.dense.set(g, 1);
    const auto [k, v] = argmin_unvisited(f.dense, key, world);
    EXPECT_EQ(v, kNoVertex);
  });
}

// --- SORTPERM ---------------------------------------------------------------

/// Reference: positions of entries sorted by (parent, degree, idx).
std::vector<VecEntry> reference_positions(
    const std::vector<VecEntry>& frontier, const std::vector<index_t>& degs) {
  struct T {
    index_t parent, degree, idx;
  };
  std::vector<T> ts;
  for (const auto& e : frontier) {
    ts.push_back({e.val, degs[static_cast<std::size_t>(e.idx)], e.idx});
  }
  std::sort(ts.begin(), ts.end(), [](const T& a, const T& b) {
    if (a.parent != b.parent) return a.parent < b.parent;
    if (a.degree != b.degree) return a.degree < b.degree;
    return a.idx < b.idx;
  });
  std::vector<VecEntry> pos;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    pos.push_back(VecEntry{ts[i].idx, static_cast<index_t>(i)});
  }
  std::sort(pos.begin(), pos.end(),
            [](const VecEntry& a, const VecEntry& b) { return a.idx < b.idx; });
  return pos;
}

/// Runs one of the two SORTPERM variants on a synthetic frontier.
void sortperm_case(int p, bool bucket, index_t n, index_t label_lo,
                   index_t label_hi, u64 seed) {
  // Synthetic degrees and frontier with parent labels in [lo, hi).
  std::vector<index_t> degs(static_cast<std::size_t>(n));
  std::vector<VecEntry> frontier;
  Rng rng(seed);
  for (index_t v = 0; v < n; ++v) {
    degs[static_cast<std::size_t>(v)] =
        static_cast<index_t>(rng.next_below(5));  // many degree ties
    if (rng.next_below(100) < 60) {
      const auto parent = label_lo + static_cast<index_t>(rng.next_below(
                              static_cast<u64>(label_hi - label_lo)));
      frontier.push_back(VecEntry{v, parent});
    }
  }
  const auto want = reference_positions(frontier, degs);

  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    VectorDist dist(n, grid.q());
    DistDenseVec d(dist, grid, 0);
    for (index_t g = d.lo(); g < d.hi(); ++g) {
      d.set(g, degs[static_cast<std::size_t>(g)]);
    }
    DistSpVec x(dist, grid);
    std::vector<VecEntry> mine;
    for (const auto& e : frontier) {
      if (e.idx >= x.lo() && e.idx < x.hi()) mine.push_back(e);
    }
    x.assign(mine);
    const auto result = bucket ? sortperm_bucket(x, d, label_lo, label_hi, grid)
                               : sortperm_sample(x, d, grid);
    const auto got = result.to_global(world);
    if (world.rank() == 0) {
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].idx, want[i].idx) << i;
        EXPECT_EQ(got[i].val, want[i].val) << i;
      }
    }
  });
}

TEST_P(PrimGrids, BucketSortpermMatchesReference) {
  sortperm_case(GetParam(), /*bucket=*/true, 80, 100, 140, 1);
  sortperm_case(GetParam(), /*bucket=*/true, 80, 0, 1, 2);    // single label
  sortperm_case(GetParam(), /*bucket=*/true, 33, 7, 200, 3);  // wide range
}

TEST_P(PrimGrids, SampleSortpermMatchesReference) {
  sortperm_case(GetParam(), /*bucket=*/false, 80, 100, 140, 4);
  sortperm_case(GetParam(), /*bucket=*/false, 33, 7, 200, 5);
}

TEST_P(PrimGrids, SortpermEmptyFrontier) {
  Runtime::run(GetParam(), [](Comm& world) {
    ProcGrid2D grid(world);
    VectorDist dist(20, grid.q());
    DistDenseVec d(dist, grid, 1);
    DistSpVec x(dist, grid);
    const auto r1 = sortperm_bucket(x, d, 0, 5, grid);
    EXPECT_EQ(r1.global_nnz(world), 0);
    const auto r2 = sortperm_sample(x, d, grid);
    EXPECT_EQ(r2.global_nnz(world), 0);
  });
}

TEST(Sortperm, OutOfRangeParentLabelThrows) {
  Runtime::run(1, [](Comm& world) {
    ProcGrid2D grid(world);
    VectorDist dist(10, 1);
    DistDenseVec d(dist, grid, 1);
    DistSpVec x(dist, grid);
    x.assign({VecEntry{2, 99}});  // parent label outside [0, 5)
    EXPECT_THROW(sortperm_bucket(x, d, 0, 5, grid), CheckError);
  });
}

}  // namespace
}  // namespace drcm::dist
