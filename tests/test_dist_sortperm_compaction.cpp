// Regression suite for the two-level histogram-carry compaction
// (sortperm_pack_cells / sortperm_unpack_cells): the fused ordering level
// carries each rank's (bucket, degree) histogram inside the level
// collective, and the naive 4-words-per-cell encoding approaches 4x the
// ELEMENT volume on degree-diverse levels, where most cells hold a single
// element. The packed stream must
//   * round-trip every cell shape (mixed, all-singleton, all-multi, empty),
//   * cost ~1 word per singleton cell — the degree-diverse cap, pinned on
//     a power-law-degree (R-MAT) level where naive carry would dwarf the
//     3-word element deal it rides ahead of,
//   * never exceed the naive encoding plus its 2-word header,
//   * reject truncated or structurally corrupt wire streams with a
//     structured CheckError (the words arrive over the wire),
// and the fused ordering built on it must stay bit-identical to the
// unfused chain and serial RCM on the same power-law graph.
#include "dist/sortperm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"

namespace drcm::dist {
namespace {

namespace gen = sparse::gen;

bool cell_less(const SortHistCell& a, const SortHistCell& b) {
  if (a.bucket != b.bucket) return a.bucket < b.bucket;
  if (a.degree != b.degree) return a.degree < b.degree;
  return a.block < b.block;
}

bool cell_eq(const SortHistCell& a, const SortHistCell& b) {
  return a.bucket == b.bucket && a.degree == b.degree &&
         a.block == b.block && a.count == b.count;
}

/// Pack/unpack and compare as multisets: the decoder emits each bucket's
/// multi-element cells before its singletons, and sortperm_plan re-sorts
/// the table anyway, so cell ORDER is free while cell CONTENT is not.
void expect_roundtrip(const std::vector<SortHistCell>& cells, index_t block) {
  std::vector<index_t> words;
  sortperm_pack_cells(std::span<const SortHistCell>(cells), block, words);
  std::vector<SortHistCell> decoded;
  sortperm_unpack_cells(std::span<const index_t>(words), decoded);
  ASSERT_EQ(decoded.size(), cells.size());
  auto want = cells;
  std::sort(want.begin(), want.end(), cell_less);
  std::sort(decoded.begin(), decoded.end(), cell_less);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(cell_eq(decoded[i], want[i])) << "cell " << i;
  }
}

/// The format's exact upper bound: per bucket at most two group headers
/// (one multi group, one singleton group), 2 words per multi cell, 1 per
/// singleton, plus the 2-word stream header.
std::size_t packed_bound(const std::vector<SortHistCell>& cells) {
  if (cells.empty()) return 0;
  std::size_t buckets = 0, multi = 0, single = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 0 || cells[i].bucket != cells[i - 1].bucket) ++buckets;
    (cells[i].count > 1 ? multi : single) += 1;
  }
  return 2 + 4 * buckets + 2 * multi + single;
}

TEST(SortpermPack, RoundTripsEveryCellShape) {
  // Mixed multi + singleton cells sharing buckets, in local-histogram
  // (bucket, degree) order — sortperm_local_hist's output shape.
  expect_roundtrip({{0, 1, 3, 5},
                    {0, 2, 3, 1},
                    {0, 7, 3, 1},
                    {2, 0, 3, 2},
                    {5, 1, 3, 1},
                    {5, 2, 3, 9},
                    {5, 3, 3, 1}},
                   3);
  // All singleton (the degree-diverse extreme).
  expect_roundtrip({{1, 4, 0, 1}, {1, 9, 0, 1}, {3, 2, 0, 1}}, 0);
  // All multi (the mass-degree-tie extreme).
  expect_roundtrip({{0, 3, 2, 40}, {4, 3, 2, 17}}, 2);
  // One cell.
  expect_roundtrip({{11, 0, 7, 1}}, 7);
}

TEST(SortpermPack, EmptyHistogramEmitsNothing) {
  std::vector<index_t> words;
  sortperm_pack_cells(std::span<const SortHistCell>(), 5, words);
  EXPECT_TRUE(words.empty()) << "idle ranks add zero carried words";
  std::vector<SortHistCell> decoded;
  sortperm_unpack_cells(std::span<const index_t>(words), decoded);
  EXPECT_TRUE(decoded.empty());
}

TEST(SortpermPack, ConcatenatedStreamsAreSelfDelimiting) {
  // The collective concatenates per-rank streams without per-source
  // counts; the headers alone must recover every rank's cells.
  const std::vector<SortHistCell> r0{{0, 2, 0, 3}, {1, 5, 0, 1}};
  const std::vector<SortHistCell> r2{{1, 1, 2, 1}, {1, 6, 2, 1}, {4, 2, 2, 2}};
  std::vector<index_t> wire;
  sortperm_pack_cells(std::span<const SortHistCell>(r0), 0, wire);
  sortperm_pack_cells(std::span<const SortHistCell>(r2), 2, wire);
  std::vector<SortHistCell> decoded;
  sortperm_unpack_cells(std::span<const index_t>(wire), decoded);
  ASSERT_EQ(decoded.size(), r0.size() + r2.size());
  std::size_t from_r0 = 0, from_r2 = 0;
  for (const auto& c : decoded) {
    (c.block == 0 ? from_r0 : from_r2) += 1;
  }
  EXPECT_EQ(from_r0, r0.size());
  EXPECT_EQ(from_r2, r2.size());
}

TEST(SortpermPack, RandomHistogramsHoldTheNaiveAndExactBounds) {
  Rng rng(404);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<SortHistCell> cells;
    index_t bucket = 0;
    const int n_cells = 1 + static_cast<int>(rng.next_u64() % 60);
    index_t degree = 0;
    for (int i = 0; i < n_cells; ++i) {
      if (rng.next_u64() % 3 == 0) {
        bucket += 1 + static_cast<index_t>(rng.next_u64() % 4);
        degree = 0;
      }
      degree += 1 + static_cast<index_t>(rng.next_u64() % 5);
      const index_t count =
          rng.next_u64() % 2 == 0
              ? 1
              : 2 + static_cast<index_t>(rng.next_u64() % 30);
      cells.push_back({bucket, degree, 6, count});
    }
    std::vector<index_t> words;
    sortperm_pack_cells(std::span<const SortHistCell>(cells), 6, words);
    EXPECT_LE(words.size(), 4 * cells.size() + 2)
        << "never larger than the naive cells plus one header";
    EXPECT_LE(words.size(), packed_bound(cells));
    std::vector<SortHistCell> decoded;
    sortperm_unpack_cells(std::span<const index_t>(words), decoded);
    EXPECT_EQ(decoded.size(), cells.size());
  }
}

TEST(SortpermPack, PowerLawDegreeLevelCarryStaysNearElementCount) {
  // The S2 regression shape: an R-MAT graph's heavy-tailed degrees make
  // nearly every (bucket, degree) cell a singleton, which is exactly where
  // the naive carry approached 4x the element volume. Build the histogram
  // a single rank would publish for a level containing every vertex
  // (buckets = contiguous parent-label ranges, degrees = true R-MAT
  // degrees) and pin the packed volume near ONE word per cell.
  const auto g = gen::rmat(7, 8, 5);
  std::vector<SortHistCell> cells;
  index_t singles = 0;
  for (index_t lo = 0; lo < g.n(); lo += 32) {
    const index_t bucket = lo / 32;
    std::vector<index_t> degrees;
    for (index_t v = lo; v < std::min(g.n(), lo + 32); ++v) {
      degrees.push_back(g.degree(v));
    }
    std::sort(degrees.begin(), degrees.end());
    for (std::size_t i = 0; i < degrees.size();) {
      std::size_t j = i;
      while (j < degrees.size() && degrees[j] == degrees[i]) ++j;
      cells.push_back({bucket, degrees[i], 0,
                       static_cast<index_t>(j - i)});
      if (j - i == 1) ++singles;
      i = j;
    }
  }
  ASSERT_GE(2 * singles, static_cast<index_t>(cells.size()))
      << "power-law degrees must actually produce a singleton-heavy level";
  std::vector<index_t> words;
  sortperm_pack_cells(std::span<const SortHistCell>(cells), 0, words);
  const std::size_t naive = 4 * cells.size();
  EXPECT_LE(words.size(), packed_bound(cells));
  EXPECT_LT(2 * words.size(), naive)
      << "the compaction must at least halve the degree-diverse carry";
  expect_roundtrip(cells, 0);
}

TEST(SortpermUnpack, RejectsTruncatedAndCorruptStreams) {
  const auto reject = [](std::vector<index_t> words) {
    std::vector<SortHistCell> out;
    EXPECT_THROW(
        sortperm_unpack_cells(std::span<const index_t>(words), out),
        CheckError);
  };
  reject({7});                       // truncated header
  reject({7, 5, 0, 1, 3});           // payload shorter than nwords
  reject({7, 2, 4, 0});              // empty group (k == 0)
  reject({7, 4, 4, 2, 9, 1});        // pair group truncated mid-cell
  reject({7, 3, 4, -5, 9, 9});       // singleton group truncated
  // A corrupted most-negative k must fail the bounds check, not overflow.
  reject({7, 2, 4, std::numeric_limits<index_t>::min()});
}

TEST(SortpermCompaction, FusedOrderingOnPowerLawGraphStaysBitIdentical) {
  // End-to-end tie-down: the packed carry feeds the fused ordering level;
  // on the same power-law graph the distributed ordering must still agree
  // with serial RCM label for label.
  const auto g = gen::rmat(7, 8, 5);
  const auto want = order::rcm_serial(g);
  for (const int p : {1, 4, 9}) {
    EXPECT_EQ(rcm::run_dist_rcm(p, g).labels, want) << "p=" << p;
  }
}

}  // namespace
}  // namespace drcm::dist
