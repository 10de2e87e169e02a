// Output-sensitivity gate for the distributed ordering: one level step
// must cost O(frontier work) on every rank, never O(n/p).
//
// grid3d(3, 3, L) with the 27-point stencil is a long bar: every BFS level
// is one 3x3 slab, so the vertex count, the level count and the total
// expansion volume all grow linearly in L. An output-sensitive pass
// therefore charges each rank about twice the compute units when L
// doubles. A per-level scan of the owned range (levels x n/p) grows
// quadratically instead — about 4x — which is what this gate catches.
//
// The sweep honors DRCM_TEST_RANKS so CI can run it once per rank count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "dist_rank_matrix.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"

namespace drcm::rcm {
namespace {

namespace gen = sparse::gen;

/// Compute units each rank charged to the peripheral search and the
/// ordering levels' SpMSpV and SET/SELECT phases.
std::vector<double> level_units(int p, index_t length) {
  const auto a = gen::grid3d(3, 3, length, gen::Stencil3d::k27);
  const auto run = run_dist_order(p, a);
  std::vector<double> units;
  for (const auto& rank : run.report.ranks) {
    double u = 0;
    for (const auto phase :
         {mps::Phase::kPeripheralSpmspv, mps::Phase::kPeripheralOther,
          mps::Phase::kOrderingSpmspv, mps::Phase::kOrderingOther}) {
      u += rank.phase(phase).compute_units;
    }
    units.push_back(u);
  }
  return units;
}

TEST(OutputSensitivity, LevelUnitsGrowLinearlyWithBarLength) {
  const std::vector<int> ranks =
      std::getenv("DRCM_TEST_RANKS") ? dist::testing::rank_counts()
                                     : std::vector<int>{1, 4};
  constexpr index_t kLength = 96;
  for (const int p : ranks) {
    const auto base = level_units(p, kLength);
    const auto doubled = level_units(p, 2 * kLength);
    ASSERT_EQ(base.size(), doubled.size());
    for (std::size_t r = 0; r < base.size(); ++r) {
      ASSERT_GT(base[r], 0.0) << "p=" << p << " rank=" << r;
      EXPECT_LE(doubled[r] / base[r], 2.2)
          << "p=" << p << " rank=" << r << " units "
          << base[r] << " -> " << doubled[r];
    }
  }
}

}  // namespace
}  // namespace drcm::rcm
