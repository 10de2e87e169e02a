// The speculative-search wall. Under George-Liu every candidate sweep after
// a component's first runs as a fused CM labeling (rcm::
// dist_order_component); the last one becomes the component's ordering and
// the others are reset. That must change nothing a caller can see:
//   * labels equal order::rcm_serial, and the sweep and level counts equal
//     the serial search's, in both PeripheralModes;
//   * every recipe component (seed, root, sweeps, level_starts) equals the
//     one built from dist_pseudo_peripheral + dist_cm_component;
//   * the discarded-sweep count is what the sweep counts imply (k - 2 per
//     George-Liu component of k >= 2 sweeps, none under bi-criteria);
//   * a discarded sweep's reset touches only its own component.
// The graphs cover isolated vertices (k = 1), complete graphs and paths
// (k = 2), graphs that force discards (k >= 3) and many components.
//
// The sweep honors DRCM_TEST_RANKS (a single rank count) so CI can run the
// same suite once per configuration.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dist/primitives.hpp"
#include "dist_rank_matrix.hpp"
#include "mpsim/runtime.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/dist_peripheral.hpp"
#include "rcm/dist_rcm.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"

namespace drcm::rcm {
namespace {

using dist::testing::rank_counts;
using mps::Comm;
using mps::Runtime;
using sparse::CsrMatrix;
namespace gen = sparse::gen;

struct Case {
  std::string name;
  CsrMatrix a;
};

std::vector<Case> wall_graphs() {
  std::vector<Case> cases;
  cases.push_back({"isolated", gen::empty_graph(4)});
  cases.push_back({"complete", gen::complete(7)});
  cases.push_back({"path", gen::path(9)});
  // Three George-Liu sweeps (one discard), two under bi-criteria.
  cases.push_back({"small_world", gen::small_world(80, 2, 0.1, 4)});
  cases.push_back({"er_fragmented", gen::erdos_renyi(60, 2.0, 5)});
  cases.push_back({"geometric", gen::random_geometric(120, 0.15, 3)});
  cases.push_back({"mixed",
                   gen::disjoint_union({gen::complete(5), gen::empty_graph(2),
                                        gen::small_world(80, 2, 0.1, 4),
                                        gen::relabel_random(gen::grid2d(6, 5),
                                                            9)})});
  return cases;
}

/// The recipe the unfused route builds: per component the plain search,
/// then a CM labeling from its root. Collective.
OrderingRecipe reference_recipe(Comm& world, const CsrMatrix& a,
                                PeripheralMode mode) {
  dist::ProcGrid2D grid(world);
  dist::DistSpMat mat(grid, a);
  const auto degrees = mat.degrees(grid);
  dist::DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);
  OrderingRecipe recipe;
  index_t next = 0;
  while (next < a.n()) {
    const index_t seed = dist::argmin_unvisited(labels, degrees, world).second;
    const auto peripheral =
        dist_pseudo_peripheral(mat, degrees, seed, grid, mode);
    ComponentRecipe cr;
    cr.seed = seed;
    cr.root = peripheral.vertex;
    cr.sweeps = peripheral.bfs_sweeps;
    next = dist_cm_component(mat, degrees, labels, peripheral.vertex, next,
                             grid, &cr.level_starts)
               .next_label;
    cr.level_starts.push_back(next);
    recipe.components.push_back(std::move(cr));
  }
  return recipe;
}

TEST(SpeculativeSearch, MatchesSerialAndTheUnfusedRecipe) {
  int seen_one = 0, seen_two = 0, seen_more = 0, seen_discards = 0;
  for (const auto& c : wall_graphs()) {
    for (const auto mode :
         {PeripheralMode::kGeorgeLiu, PeripheralMode::kBiCriteria}) {
      order::OrderingStats serial_stats;
      const auto serial = order::rcm_serial(c.a, &serial_stats, mode);
      for (const int p : rank_counts()) {
        SCOPED_TRACE(c.name + " mode=" + peripheral_mode_name(mode) +
                     " p=" + std::to_string(p));
        DistRcmOptions options;
        options.ordering.peripheral_mode = mode;
        std::vector<index_t> labels;
        DistRcmStats stats;
        OrderingRecipe recipe, reference;
        Runtime::run(
            p,
            [&](Comm& world) {
              DistRcmStats my_stats;
              OrderingRecipe mine;
              dist::ProcGrid2D grid(world);
              auto got = dist_order(grid, c.a, options, &my_stats, &mine);
              auto ref = reference_recipe(world, c.a, mode);
              if (world.rank() == 0) {
                labels = std::move(got);
                stats = my_stats;
                recipe = std::move(mine);
                reference = std::move(ref);
              }
            });

        EXPECT_EQ(labels, serial);
        EXPECT_EQ(stats.components, serial_stats.components);
        EXPECT_EQ(stats.peripheral_bfs_sweeps,
                  serial_stats.peripheral_bfs_sweeps);
        EXPECT_EQ(stats.ordering_levels, serial_stats.ordering_levels);

        ASSERT_EQ(recipe.components.size(), reference.components.size());
        int discards = 0;
        for (std::size_t k = 0; k < recipe.components.size(); ++k) {
          const auto& got = recipe.components[k];
          const auto& want = reference.components[k];
          EXPECT_EQ(got.seed, want.seed) << "component " << k;
          EXPECT_EQ(got.root, want.root) << "component " << k;
          EXPECT_EQ(got.sweeps, want.sweeps) << "component " << k;
          EXPECT_EQ(got.level_starts, want.level_starts) << "component " << k;
          if (mode == PeripheralMode::kGeorgeLiu && got.sweeps >= 2) {
            discards += got.sweeps - 2;
          }
          seen_one += got.sweeps == 1;
          seen_two += got.sweeps == 2;
          seen_more += got.sweeps >= 3;
        }
        EXPECT_EQ(stats.discarded_sweeps, discards);
        seen_discards += stats.discarded_sweeps;
      }
    }
  }
  // The wall really covers every sweep-count regime.
  EXPECT_GT(seen_one, 0);
  EXPECT_GT(seen_two, 0);
  EXPECT_GT(seen_more, 0);
  EXPECT_GT(seen_discards, 0);
}

TEST(SpeculativeSearch, DiscardedSweepResetTouchesOnlyItsComponent) {
  // [path(5) | small world (80 vertices) | path(7)]: the small-world
  // component takes three George-Liu sweeps, so one speculative sweep is
  // labeled and then reset. Every vertex outside the component carries a
  // sentinel label above any the component can receive, and must keep it:
  // a reset that scanned the slab for labels >= the first label, or
  // cleared whole ranges, would wipe them.
  const auto a = gen::disjoint_union(
      {gen::path(5), gen::small_world(80, 2, 0.1, 4), gen::path(7)});
  constexpr index_t kLo = 5, kHi = 85, kFirst = 3, kSentinel = 1000;
  const auto outside = [&](index_t v) { return v < kLo || v >= kHi; };
  for (const int p : rank_counts()) {
    SCOPED_TRACE("p=" + std::to_string(p));
    Runtime::run(
        p,
        [&](Comm& world) {
          dist::ProcGrid2D grid(world);
          dist::DistSpMat mat(grid, a);
          const auto degrees = mat.degrees(grid);
          const auto prefilled = [&] {
            dist::DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);
            for (index_t g = labels.lo(); g < labels.hi(); ++g) {
              if (outside(g)) labels.set(g, kSentinel + g);
            }
            return labels;
          };
          auto labels = prefilled();
          const index_t seed =
              dist::argmin_unvisited(labels, degrees, world).second;
          std::vector<index_t> starts;
          const auto comp = dist_order_component(
              mat, degrees, labels, seed, kFirst, grid,
              PeripheralMode::kGeorgeLiu, &starts);
          EXPECT_EQ(comp.sweeps, 3);
          EXPECT_EQ(comp.discarded_sweeps, 1);
          EXPECT_EQ(comp.next_label, kFirst + (kHi - kLo));

          auto reference = prefilled();
          const auto peripheral =
              dist_pseudo_peripheral(mat, degrees, seed, grid);
          std::vector<index_t> ref_starts;
          dist_cm_component(mat, degrees, reference, peripheral.vertex,
                            kFirst, grid, &ref_starts);
          EXPECT_EQ(comp.root, peripheral.vertex);
          EXPECT_EQ(comp.eccentricity, peripheral.eccentricity);
          EXPECT_EQ(starts, ref_starts);

          const auto got = labels.to_global(world);
          const auto want = reference.to_global(world);
          if (world.rank() == 0) {
            EXPECT_EQ(got, want);
            for (index_t v = 0; v < a.n(); ++v) {
              if (outside(v)) {
                EXPECT_EQ(got[static_cast<std::size_t>(v)], kSentinel + v)
                    << "vertex " << v << " lies outside the component";
              }
            }
          }
        });
  }
}

}  // namespace
}  // namespace drcm::rcm
