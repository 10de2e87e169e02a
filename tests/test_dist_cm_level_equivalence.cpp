// Equivalence wall for the fused ordering-level kernel: on Erdős–Rényi,
// grid, star and path graphs, under the {1,4,9} x {1,2,6} rank x thread
// matrix, the fused dist::cm_level_step, the unfused reference chain
// (bfs_level_step + sortperm_bucket + add_scalar + scatter_into_dense) and
// serial RCM must produce bit-identical frontiers and labels — level by
// level and for the complete ordering. Comparison-free label ranking is
// exactly what makes the fusion legal; the thread axis additionally proves
// the hybrid node-level SpMSpV changed the wall clock and nothing else.
//
// The sweep honors DRCM_TEST_RANKS / DRCM_TEST_THREADS (a single rank or
// thread count each) so CI can run the same suite once per configuration.
#include "dist/level_kernel.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dist_rank_matrix.hpp"
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

using drcm::dist::testing::rank_counts;
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

TEST(CmLevelEquivalence, FullOrderingFusedAndSampleSortMatchSerial) {
  for (const auto& a : graph_pool()) {
    const auto want = order::rcm_serial(a);
    for (const int p : rank_counts()) {
      for (const int t : thread_counts()) {
        // Bucket sort runs the fused level; the sample-sort baseline cannot
        // ride the collective and runs the reference chain. Both must
        // reproduce serial RCM.
        for (const auto sort :
             {rcm::SortKind::kBucket, rcm::SortKind::kSampleSort}) {
          rcm::DistRcmOptions opt;
          opt.sort = sort;
          opt.threads = t;
          const auto run = rcm::run_dist_rcm(p, a, opt);
          EXPECT_EQ(run.labels, want)
              << "n=" << a.n() << " p=" << p << " t=" << t
              << " sort=" << static_cast<int>(sort);
        }
      }
    }
  }
}

TEST(CmLevelEquivalence, LevelByLevelFusedVsUnfusedBitIdentical) {
  // Drive one component level by level with twin label vectors: after
  // every level both arms must agree on the next frontier (support AND
  // minimum-parent values) and on every label assigned so far.
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
        DistDenseVec labels_f(mat.vec_dist(), grid, kNoVertex);
        DistDenseVec labels_u(mat.vec_dist(), grid, kNoVertex);
        if (labels_f.owns(root)) labels_f.set(root, 0);
        if (labels_u.owns(root)) labels_u.set(root, 0);
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
              mat, frontier, labels_f, degrees, label_lo, next_label,
              next_label, grid, mps::Phase::kOrderingSpmspv,
              mps::Phase::kOrderingSort, mps::Phase::kOrderingOther);
          const auto unfused = cm_level_step_unfused(
              mat, frontier, labels_u, degrees, label_lo, next_label,
              next_label, grid, mps::Phase::kPeripheralSpmspv,
              mps::Phase::kSolver, mps::Phase::kPeripheralOther);
          ASSERT_EQ(fused.global_nnz, unfused.global_nnz)
              << "seed=" << seed << " p=" << p << " depth=" << depth;
          ASSERT_EQ(fused.next.entries(), unfused.next.entries())
              << "seed=" << seed << " p=" << p << " depth=" << depth;
          for (index_t g = labels_f.lo(); g < labels_f.hi(); ++g) {
            ASSERT_EQ(labels_f.get(g), labels_u.get(g))
                << "seed=" << seed << " p=" << p << " depth=" << depth
                << " g=" << g;
          }
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
