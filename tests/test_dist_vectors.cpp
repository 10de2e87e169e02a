// Tests for the 2D grid, the vector distribution math, and the
// dense/sparse distributed vectors.
#include <gtest/gtest.h>

#include "dist/dist_vector.hpp"
#include "dist/proc_grid.hpp"
#include "mpsim/runtime.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;

TEST(VectorDist, ChunkBoundariesCoverExactly) {
  for (index_t n : {0, 1, 7, 100, 101, 1000}) {
    for (int q : {1, 2, 3, 4, 7}) {
      VectorDist d(n, q);
      EXPECT_EQ(d.chunk_lo(0), 0);
      EXPECT_EQ(d.chunk_lo(q), n);
      index_t total = 0;
      for (int c = 0; c < q; ++c) {
        EXPECT_GE(d.chunk_size(c), 0);
        total += d.chunk_size(c);
        // Balanced: sizes differ by at most 1.
        EXPECT_LE(std::abs(d.chunk_size(c) - n / q), 1);
      }
      EXPECT_EQ(total, n);
    }
  }
}

TEST(VectorDist, SubChunksPartitionChunks) {
  VectorDist d(103, 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(d.sub_lo(c, 0), d.chunk_lo(c));
    EXPECT_EQ(d.sub_lo(c, 4), d.chunk_lo(c + 1));
    for (int r = 0; r < 4; ++r) EXPECT_GE(d.sub_size(c, r), 0);
  }
}

TEST(VectorDist, OwnerMapsAreConsistentExhaustively) {
  for (index_t n : {1, 13, 64, 107}) {
    for (int q : {1, 2, 3, 5}) {
      VectorDist d(n, q);
      for (index_t g = 0; g < n; ++g) {
        const int c = d.owner_col(g);
        const int r = d.owner_row(g);
        ASSERT_GE(c, 0);
        ASSERT_LT(c, q);
        ASSERT_GE(r, 0);
        ASSERT_LT(r, q);
        // g lies inside the owned range of (r, c).
        const auto [lo, hi] = d.owned_range(r, c);
        EXPECT_LE(lo, g);
        EXPECT_LT(g, hi);
        EXPECT_EQ(d.owner_rank(g), r * q + c);
      }
    }
  }
}

TEST(CutTable, AgreesWithTheOwnerArithmeticForEveryElement) {
  // n < q leaves chunks and sub-chunks empty: the scans must step over
  // every empty cut exactly like the closed-form owner_* adjustments.
  for (index_t n = 0; n <= 130; ++n) {
    for (int q = 1; q <= 6; ++q) {
      const VectorDist d(n, q);
      const CutTable cuts(d);
      for (index_t g = 0; g < n; ++g) {
        const int c = d.owner_col(g);
        ASSERT_EQ(cuts.owner_col(g), c) << "n=" << n << " q=" << q << " g=" << g;
        ASSERT_EQ(cuts.owner_row_in_chunk(c, g), d.owner_row(g))
            << "n=" << n << " q=" << q << " g=" << g;
        ASSERT_EQ(cuts.owner_rank(g), d.owner_rank(g))
            << "n=" << n << " q=" << q << " g=" << g;
      }
    }
  }
}

TEST(ProcGrid, RequiresSquareWorld) {
  EXPECT_THROW(Runtime::run(2, [](Comm& world) { ProcGrid2D grid(world); }),
               CheckError);
  EXPECT_THROW(Runtime::run(8, [](Comm& world) { ProcGrid2D grid(world); }),
               CheckError);
}

TEST(ProcGrid, CoordinatesAndColumnRanks) {
  Runtime::run(9, [](Comm& world) {
    ProcGrid2D grid(world);
    EXPECT_EQ(grid.q(), 3);
    EXPECT_EQ(grid.row(), world.rank() / 3);
    EXPECT_EQ(grid.col(), world.rank() % 3);
    // My processor column, in grid-row order: every member shares my
    // column index, and I sit at my row.
    const auto column = grid.col_world_ranks();
    ASSERT_EQ(column.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(column[static_cast<std::size_t>(r)] % 3, grid.col());
      EXPECT_EQ(column[static_cast<std::size_t>(r)] / 3, r);
    }
  });
}

TEST(ProcGrid, LargestSquareHelper) {
  EXPECT_EQ(largest_square_grid(1), 1);
  EXPECT_EQ(largest_square_grid(3), 1);
  EXPECT_EQ(largest_square_grid(4), 4);
  EXPECT_EQ(largest_square_grid(24), 16);
  EXPECT_EQ(largest_square_grid(100), 100);
  EXPECT_THROW(largest_square_grid(0), CheckError);
}

class DistVectorGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, DistVectorGrids, ::testing::Values(1, 4, 9, 16));

TEST_P(DistVectorGrids, DenseVecRoundTrip) {
  const int p = GetParam();
  Runtime::run(p, [](Comm& world) {
    ProcGrid2D grid(world);
    VectorDist dist(57, grid.q());
    DistDenseVec v(dist, grid, kNoVertex);
    // Every rank writes g*10 into its owned range.
    for (index_t g = v.lo(); g < v.hi(); ++g) v.set(g, g * 10);
    const auto global = v.to_global(world);
    ASSERT_EQ(global.size(), 57u);
    for (index_t g = 0; g < 57; ++g) {
      EXPECT_EQ(global[static_cast<std::size_t>(g)], g * 10);
    }
  });
}

TEST_P(DistVectorGrids, SparseVecAssignValidatesOwnership) {
  const int p = GetParam();
  Runtime::run(p, [](Comm& world) {
    ProcGrid2D grid(world);
    VectorDist dist(40, grid.q());
    DistSpVec v(dist, grid);
    // Owned singleton is fine.
    v.assign({VecEntry{v.lo(), 1}});
    if (v.hi() - v.lo() >= 2) {
      EXPECT_THROW(v.assign({VecEntry{v.lo() + 1, 1}, VecEntry{v.lo(), 2}}),
                   CheckError);  // unsorted
    }
    if (world.size() > 1) {
      // Some rank does not own index 0.
      if (v.lo() > 0) {
        EXPECT_THROW(v.assign({VecEntry{0, 1}}), CheckError);
      }
    }
  });
}

TEST_P(DistVectorGrids, SparseVecGlobalNnzAndGather) {
  const int p = GetParam();
  Runtime::run(p, [](Comm& world) {
    ProcGrid2D grid(world);
    VectorDist dist(33, grid.q());
    DistSpVec v(dist, grid);
    // Each rank contributes every 3rd owned index.
    std::vector<VecEntry> mine;
    for (index_t g = v.lo(); g < v.hi(); ++g) {
      if (g % 3 == 0) mine.push_back(VecEntry{g, g + 100});
    }
    v.assign(mine);
    const index_t expected = (33 + 2) / 3;  // indices 0,3,...,30
    EXPECT_EQ(v.global_nnz(world), expected);
    const auto global = v.to_global(world);
    ASSERT_EQ(global.size(), static_cast<std::size_t>(expected));
    for (std::size_t i = 0; i < global.size(); ++i) {
      EXPECT_EQ(global[i].idx, static_cast<index_t>(3 * i));
      EXPECT_EQ(global[i].val, static_cast<index_t>(3 * i) + 100);
    }
  });
}

}  // namespace
}  // namespace drcm::dist
