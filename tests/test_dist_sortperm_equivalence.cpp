// The contract behind perfbench's dist.sortperm_* probes: the paper's bucket
// SORTPERM and the sample-sort baseline are interchangeable — identical
// ranks on any frontier, including deterministic resolution of degree
// ties, so every measured difference between them is performance, never
// output.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dist/sortperm.hpp"
#include "mpsim/runtime.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;

struct Frontier {
  index_t n = 0;
  index_t label_lo = 0;
  index_t label_hi = 0;
  std::vector<index_t> degrees;
  std::vector<VecEntry> entries;
};

/// Random frontier with parent labels in [label_lo, label_hi) and degrees
/// drawn from a small range so ties are everywhere.
Frontier random_frontier(index_t n, index_t label_lo, index_t label_hi,
                         index_t degree_range, int fill_percent, u64 seed) {
  Frontier f;
  f.n = n;
  f.label_lo = label_lo;
  f.label_hi = label_hi;
  f.degrees.resize(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (index_t v = 0; v < n; ++v) {
    f.degrees[static_cast<std::size_t>(v)] =
        static_cast<index_t>(rng.next_below(static_cast<u64>(degree_range)));
    if (rng.next_below(100) < static_cast<u64>(fill_percent)) {
      const auto parent = label_lo + static_cast<index_t>(rng.next_below(
                              static_cast<u64>(label_hi - label_lo)));
      f.entries.push_back(VecEntry{v, parent});
    }
  }
  return f;
}

/// Runs one SORTPERM variant and returns the replicated ranked entries.
std::vector<VecEntry> run_variant(int p, const Frontier& f, bool bucket) {
  std::vector<VecEntry> out;
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    VectorDist dist(f.n, grid.q());
    DistDenseVec d(dist, grid, 0);
    for (index_t g = d.lo(); g < d.hi(); ++g) {
      d.set(g, f.degrees[static_cast<std::size_t>(g)]);
    }
    DistSpVec x(dist, grid);
    std::vector<VecEntry> mine;
    for (const auto& e : f.entries) {
      if (e.idx >= x.lo() && e.idx < x.hi()) mine.push_back(e);
    }
    x.assign(mine);
    const auto r = bucket
                       ? sortperm_bucket(x, d, f.label_lo, f.label_hi, grid)
                       : sortperm_sample(x, d, grid);
    const auto gathered = r.to_global(world);
    if (world.rank() == 0) out = gathered;
  });
  return out;
}

class EquivalenceGrids : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Grids, EquivalenceGrids, ::testing::Values(1, 4, 9, 16));

TEST_P(EquivalenceGrids, IdenticalRanksOnRandomFrontiers) {
  const int p = GetParam();
  for (u64 seed : {11u, 12u, 13u}) {
    const auto f = random_frontier(120, 500, 560, 4, 70, seed);
    const auto bucket = run_variant(p, f, true);
    const auto sample = run_variant(p, f, false);
    ASSERT_EQ(bucket.size(), sample.size()) << "seed " << seed;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      EXPECT_EQ(bucket[i], sample[i]) << "seed " << seed << " i=" << i;
    }
  }
}

TEST_P(EquivalenceGrids, DegreeTiesBreakIdentically) {
  // Every vertex has the same degree: the entire order inside a parent
  // bucket is decided by the index tie-break both variants must share.
  const int p = GetParam();
  const auto f = random_frontier(90, 0, 3, 1, 80, 21);
  const auto bucket = run_variant(p, f, true);
  const auto sample = run_variant(p, f, false);
  ASSERT_EQ(bucket.size(), sample.size());
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    EXPECT_EQ(bucket[i], sample[i]) << i;
  }
}

TEST_P(EquivalenceGrids, WideSparseLabelRange) {
  // Far more buckets than elements: most buckets empty, bucket routing
  // still must agree with the comparison baseline.
  const int p = GetParam();
  const auto f = random_frontier(60, 10, 900, 5, 30, 33);
  const auto bucket = run_variant(p, f, true);
  const auto sample = run_variant(p, f, false);
  ASSERT_EQ(bucket.size(), sample.size());
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    EXPECT_EQ(bucket[i], sample[i]) << i;
  }
}

TEST_P(EquivalenceGrids, RanksAreAPermutationOfPositions) {
  const int p = GetParam();
  const auto f = random_frontier(100, 7, 40, 3, 60, 44);
  const auto bucket = run_variant(p, f, true);
  ASSERT_EQ(bucket.size(), f.entries.size());
  std::vector<bool> seen(bucket.size(), false);
  for (const auto& e : bucket) {
    ASSERT_GE(e.val, 0);
    ASSERT_LT(e.val, static_cast<index_t>(bucket.size()));
    EXPECT_FALSE(seen[static_cast<std::size_t>(e.val)]) << "duplicate rank";
    seen[static_cast<std::size_t>(e.val)] = true;
  }
}

TEST(SortpermStripes, GiantBucketRanksByIndex) {
  // A star graph's leaf level: the center (vertex 0) was labeled 0, and
  // every leaf joins the next level with parent label 0 and degree 1 — one
  // giant bucket full of degree ties, dealt whole to one sort worker.
  // Within the single (bucket, degree) run the order is by index, so leaf
  // v must receive rank v - 1.
  for (const int p : {4, 9}) {
    const index_t n = 1 + 48 * static_cast<index_t>(p);
    Runtime::run(p, [&](Comm& world) {
      ProcGrid2D grid(world);
      VectorDist dist(n, grid.q());
      DistDenseVec degrees(dist, grid, 1);
      if (degrees.owns(0)) degrees.set(0, n - 1);
      DistSpVec x(dist, grid);
      std::vector<VecEntry> mine;
      for (index_t v = std::max<index_t>(1, x.lo()); v < x.hi(); ++v) {
        mine.push_back(VecEntry{v, 0});
      }
      x.assign(mine);
      const auto r = sortperm_bucket(x, degrees, 0, 1, grid);
      EXPECT_EQ(r.entries().size(), mine.size());
      for (const auto& e : r.entries()) {
        EXPECT_EQ(e.val, e.idx - 1) << "p=" << p;
      }
    });
  }
}

TEST(SortpermStripes, SingleCellLevelRanksByIndex) {
  // A level whose elements all sit in ONE rank's owned range with one
  // parent label and uniform degree: a single (bucket, degree) cell, so
  // the ranks are the index order.
  for (const int p : {4, 9}) {
    const index_t n = 40 * static_cast<index_t>(p);
    const index_t m = 35;  // within block 0's owned range (40 elements)
    Runtime::run(p, [&](Comm& world) {
      ProcGrid2D grid(world);
      VectorDist dist(n, grid.q());
      DistDenseVec degrees(dist, grid, 3);
      DistSpVec x(dist, grid);
      std::vector<VecEntry> mine;
      for (index_t v = x.lo(); v < std::min(m, x.hi()); ++v) {
        mine.push_back(VecEntry{v, 5});
      }
      x.assign(mine);
      const auto r = sortperm_bucket(x, degrees, 5, 6, grid);
      EXPECT_EQ(r.global_nnz(world), m);
      for (const auto& e : r.entries()) {
        EXPECT_EQ(e.val, e.idx) << "p=" << p;  // index order within the cell
      }
    });
  }
}

TEST(SortpermEquivalence, DeterministicAcrossRuns) {
  const auto f = random_frontier(80, 100, 130, 4, 65, 55);
  const auto first = run_variant(4, f, true);
  const auto second = run_variant(4, f, true);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << i;
  }
}

}  // namespace
}  // namespace drcm::dist
