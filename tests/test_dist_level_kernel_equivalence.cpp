// Randomized equivalence suite for the fused BFS level kernel: on
// Erdős–Rényi and grid graphs, under the {1,4,9} x {1,2,6} rank x thread
// matrix, every level dist::bfs_level_step returns must equal the serial
// level oracle (tests/level_oracle.hpp) — count, next-frontier support and
// minimum-parent values — and whole orderings must equal serial RCM,
// including the degree-tie determinism the ordering quality contract rests
// on. The thread axis drives the hybrid node-level SpMSpV (per-thread SPAs
// with a deterministic ordered merge), so every point of the matrix is
// held to the same serial reference.
//
// The sweep honors DRCM_TEST_RANKS / DRCM_TEST_THREADS (a single rank or
// thread count each) so CI can run the same suite once per configuration.
#include "dist/level_kernel.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dist_rank_matrix.hpp"
#include "dist/primitives.hpp"
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
using drcm::dist::testing::serial_level;
using drcm::dist::testing::support;
using drcm::dist::testing::thread_counts;

/// The randomized graph pool: ER at several densities plus 2D/3D grids
/// (mass degree ties) and a randomly relabeled grid (scattered ownership).
CsrMatrix sweep_graph(u64 seed) {
  switch (seed % 6) {
    case 0: return gen::erdos_renyi(90 + 7 * static_cast<index_t>(seed % 5),
                                    3.0 + static_cast<double>(seed % 4), seed);
    case 1: return gen::erdos_renyi(140, 6.5, seed);
    case 2: return gen::grid2d(9 + static_cast<index_t>(seed % 4), 11);
    case 3: return gen::grid3d(4, 5, 4 + static_cast<index_t>(seed % 3));
    case 4: return gen::relabel_random(gen::grid2d(12, 10), seed);
    default: return gen::erdos_renyi(60, 2.0, seed);  // fragmented
  }
}

/// The fused step against the oracle's whole level: the same global count,
/// and on every rank exactly its owned slice of the level.
void expect_step(const LevelStepResult& got, const std::vector<VecEntry>& want,
                 const char* what, int p, u64 seed, index_t depth) {
  EXPECT_EQ(got.global_nnz, static_cast<index_t>(want.size()))
      << what << " p=" << p << " seed=" << seed << " depth=" << depth;
  EXPECT_EQ(got.next.entries(), owned_slice(want, got.next))
      << what << " p=" << p << " seed=" << seed << " depth=" << depth;
}

TEST(LevelKernelEquivalence, RandomizedBfsSweepMatchesSerialLevels) {
  for (u64 seed = 1; seed <= 12; ++seed) {
    const auto a = sweep_graph(seed);
    if (a.n() == 0) continue;
    const auto root =
        static_cast<index_t>(splitmix64(seed) % static_cast<u64>(a.n()));
    for (const int p : rank_counts()) {
      for (const int t : thread_counts()) {
      Runtime::run(p, [&](Comm& world) {
        ProcGrid2D grid(world);
        DistSpMat mat(grid, a);
        DistDenseVec levels(mat.vec_dist(), grid, kNoVertex);
        if (levels.owns(root)) levels.set(root, 0);
        DistSpVec frontier(mat.vec_dist(), grid);
        if (frontier.lo() <= root && root < frontier.hi()) {
          frontier.assign({VecEntry{root, 0}});
        }
        // The oracle's replicated state, advanced from its own levels only.
        std::vector<index_t> oracle_levels(static_cast<std::size_t>(a.n()),
                                           kNoVertex);
        oracle_levels[static_cast<std::size_t>(root)] = 0;
        std::vector<index_t> oracle_frontier{root};
        index_t depth = 0;
        while (true) {
          const auto fused = bfs_level_step(
              mat, frontier, levels, kNoVertex, grid,
              mps::Phase::kOrderingSpmspv, mps::Phase::kOrderingOther);
          const auto level =
              serial_level(a, oracle_frontier, oracle_levels, kNoVertex);
          expect_step(fused, level, "fused vs serial level", p, seed, depth);
          if (fused.global_nnz == 0) break;
          ++depth;
          for (const auto& e : level) {
            oracle_levels[static_cast<std::size_t>(e.idx)] = depth;
          }
          oracle_frontier = support(level);
          std::vector<VecEntry> leveled(fused.next.entries().begin(),
                                        fused.next.entries().end());
          for (auto& e : leveled) e.val = depth;
          scatter_into_dense(levels, fused.next.sibling(std::move(leveled)),
                             world);
          frontier = fused.next;
        }
        const auto got = levels.to_global(world);
        if (world.rank() == 0) {
          EXPECT_EQ(got, oracle_levels) << "levels vs serial BFS, p=" << p
                                        << " t=" << t << " seed=" << seed;
        }
      }, {}, t);
      }
    }
  }
}

TEST(LevelKernelEquivalence, RandomFrontiersNotJustBfsFrontiers) {
  // BFS frontiers are special (values from a contiguous range, dense
  // support patterns); the kernel contract is broader. Drive random
  // supports with random values over a randomly marked dense vector.
  for (u64 seed = 20; seed <= 26; ++seed) {
    const auto a = sweep_graph(seed);
    Rng rng(seed * 17);
    std::vector<VecEntry> global_frontier;
    for (index_t v = 0; v < a.n(); ++v) {
      if (rng.next_below(3) == 0) {
        global_frontier.push_back(
            VecEntry{v, static_cast<index_t>(rng.next_below(50))});
      }
    }
    // Mark a random subset "visited" so SELECT has real work.
    std::vector<index_t> mark(static_cast<std::size_t>(a.n()), kNoVertex);
    for (index_t v = 0; v < a.n(); ++v) {
      if (rng.next_below(4) == 0) mark[static_cast<std::size_t>(v)] = 7;
    }
    const auto want =
        serial_level(a, support(global_frontier), mark, kNoVertex);
    for (const int p : rank_counts()) {
      for (const int t : thread_counts()) {
      Runtime::run(p, [&](Comm& world) {
        ProcGrid2D grid(world);
        DistSpMat mat(grid, a);
        DistDenseVec dense(mat.vec_dist(), grid, kNoVertex);
        for (index_t g = dense.lo(); g < dense.hi(); ++g) {
          dense.set(g, mark[static_cast<std::size_t>(g)]);
        }
        DistSpVec x(mat.vec_dist(), grid);
        std::vector<VecEntry> mine;
        for (const auto& e : global_frontier) {
          if (e.idx >= x.lo() && e.idx < x.hi()) mine.push_back(e);
        }
        x.assign(mine);
        // Note: SET refreshes values from `dense`, so the random values
        // only exercise the publish plumbing; minima then flow from the
        // dense vector. That matches the BFS loops' usage.
        const auto fused = bfs_level_step(
            mat, x, dense, kNoVertex, grid, mps::Phase::kOrderingSpmspv,
            mps::Phase::kOrderingOther);
        expect_step(fused, want, "random frontier fused vs serial", p,
                    seed * 100 + static_cast<u64>(t), 0);
      }, {}, t);
      }
    }
  }
}

TEST(LevelKernelEquivalence, FullOrderingDegreeTieDeterminism) {
  // RCM++ (Hou & Liu 2024) point: ordering quality is only trustworthy
  // with deterministic level-by-level tie-breaking. Regular graphs make
  // every degree compare equal, so the ordering is pure tie-breaking; it
  // must be bit-identical to serial RCM at every rank and thread count.
  const CsrMatrix graphs[] = {
      gen::cycle(48),                          // all degrees 2
      gen::grid2d(13, 13),                     // mass interior ties
      gen::relabel_random(gen::grid3d(4, 4, 6), 3),
      gen::disjoint_union({gen::cycle(9), gen::path(8), gen::star(6)}),
  };
  for (const auto& a : graphs) {
    const auto want = order::rcm_serial(a);
    for (const int p : rank_counts()) {
      for (const int t : thread_counts()) {
        rcm::DistRcmOptions opt;
        opt.threads = t;
        const auto run = rcm::run_dist_order(p, a, opt);
        EXPECT_EQ(run.labels, want) << "p=" << p << " t=" << t;
      }
    }
  }
}

TEST(LevelKernelEquivalence, ThreadsKnobResolvesThroughTheEnvironment) {
  // DistRcmOptions::threads: positive requests pass through; 0 falls back
  // to DRCM_THREADS, then to flat MPI.
  EXPECT_EQ(rcm::resolve_threads(4), 4);
  EXPECT_EQ(rcm::resolve_threads(0), 1);
  ASSERT_EQ(setenv("DRCM_THREADS", "6", 1), 0);
  EXPECT_EQ(rcm::resolve_threads(0), 6);
  EXPECT_EQ(rcm::resolve_threads(2), 2);  // explicit request wins
  ASSERT_EQ(unsetenv("DRCM_THREADS"), 0);
  EXPECT_EQ(rcm::resolve_threads(0), 1);
}

}  // namespace
}  // namespace drcm::dist
