// Equivalence wall for the fused ordering-level kernel: on Erdős–Rényi,
// grid, star and path graphs, under the {1,4,9} x {1,2,6} rank x thread
// matrix, dist::cm_level_step must match the serial Cuthill-McKee level
// oracle (tests/level_oracle.hpp) level by level — frontiers and every
// label assigned so far — and whole orderings must match serial RCM.
// Comparison-free label ranking is exactly what makes the fusion legal;
// the thread axis additionally proves the hybrid node-level SpMSpV changed
// the wall clock and nothing else.
//
// The sweep honors DRCM_TEST_RANKS / DRCM_TEST_THREADS (a single rank or
// thread count each) so CI can run the same suite once per configuration.
#include "dist/level_kernel.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dist_rank_matrix.hpp"
#include "level_oracle.hpp"
#include "mpsim/runtime.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;
using sparse::CsrMatrix;
namespace gen = sparse::gen;

using drcm::dist::testing::owned_slice;
using drcm::dist::testing::rank_counts;
using drcm::dist::testing::serial_cm_level;
using drcm::dist::testing::support;
using drcm::dist::testing::thread_counts;

/// The graph pool the ISSUE names: ER (degree diversity), grids (mass
/// degree ties), star (one giant single-bucket level — the worker-stripe
/// regression shape), path (one vertex per level), plus a multi-component
/// union so component seeding rides along.
std::vector<CsrMatrix> graph_pool() {
  std::vector<CsrMatrix> pool;
  pool.push_back(gen::erdos_renyi(110, 4.0, 3));
  pool.push_back(gen::erdos_renyi(150, 7.0, 11));
  pool.push_back(gen::grid2d(11, 12));
  pool.push_back(gen::relabel_random(gen::grid3d(4, 5, 4), 5));
  pool.push_back(gen::relabel_random(gen::grid2d(12, 11), 9));
  pool.push_back(gen::star(40));
  pool.push_back(gen::path(33));
  pool.push_back(
      gen::disjoint_union({gen::star(12), gen::path(9), gen::cycle(10)}));
  return pool;
}

TEST(CmLevelEquivalence, FullOrderingMatchesSerial) {
  for (const auto& a : graph_pool()) {
    const auto want = order::rcm_serial(a);
    for (const int p : rank_counts()) {
      for (const int t : thread_counts()) {
        rcm::DistRcmOptions opt;
        opt.threads = t;
        const auto run = rcm::run_dist_order(p, a, opt);
        EXPECT_EQ(run.labels, want)
            << "n=" << a.n() << " p=" << p << " t=" << t;
      }
    }
  }
}

TEST(CmLevelEquivalence, LevelByLevelMatchesTheSerialOracle) {
  // Drive one component level by level next to the serial oracle: after
  // every level the fused step must agree with it on the level count, the
  // next frontier (support AND minimum-parent values) and every label
  // assigned so far.
  for (u64 seed = 40; seed <= 45; ++seed) {
    const auto a = seed % 2 == 0
                       ? gen::erdos_renyi(100 + 5 * static_cast<index_t>(seed % 3),
                                          3.5, seed)
                       : gen::relabel_random(gen::grid2d(10, 9), seed);
    if (a.n() == 0) continue;
    const auto root =
        static_cast<index_t>(splitmix64(seed) % static_cast<u64>(a.n()));
    for (const int p : rank_counts()) {
      for (const int t : thread_counts()) {
      Runtime::run(p, [&](Comm& world) {
        ProcGrid2D grid(world);
        DistSpMat mat(grid, a);
        const auto degrees = mat.degrees(grid);
        DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);
        if (labels.owns(root)) labels.set(root, 0);
        std::vector<index_t> want(static_cast<std::size_t>(a.n()), kNoVertex);
        want[static_cast<std::size_t>(root)] = 0;
        std::vector<index_t> oracle_frontier{root};
        DistSpVec frontier(mat.vec_dist(), grid);
        if (frontier.lo() <= root && root < frontier.hi()) {
          frontier.assign({VecEntry{root, 0}});
        }
        index_t next_label = 1;
        index_t frontier_nnz = 1;
        index_t depth = 0;
        while (frontier_nnz > 0) {
          const index_t label_lo = next_label - frontier_nnz;
          const auto fused = cm_level_step(
              mat, frontier, labels, degrees, label_lo, next_label,
              next_label, grid, mps::Phase::kOrderingSpmspv,
              mps::Phase::kOrderingSort, mps::Phase::kOrderingOther);
          const auto level =
              serial_cm_level(a, oracle_frontier, want, next_label);
          // EXPECT, not ASSERT: a rank returning early would leave its
          // peers blocked in the next level's collective.
          EXPECT_EQ(fused.global_nnz, static_cast<index_t>(level.size()))
              << "seed=" << seed << " p=" << p << " depth=" << depth;
          EXPECT_EQ(fused.next.entries(), owned_slice(level, fused.next))
              << "seed=" << seed << " p=" << p << " depth=" << depth;
          const std::vector<index_t> owned_want(
              want.begin() + labels.lo(), want.begin() + labels.hi());
          EXPECT_EQ(std::vector<index_t>(labels.local().begin(),
                                         labels.local().end()),
                    owned_want)
              << "seed=" << seed << " p=" << p << " depth=" << depth;
          oracle_frontier = support(level);
          frontier_nnz = fused.global_nnz;
          next_label += frontier_nnz;
          frontier = fused.next;
          ++depth;
        }
      }, {}, t);
      }
    }
  }
}

}  // namespace
}  // namespace drcm::dist
