// The sharded-label pipeline (DistRcmOptions::sharded_labels): the label
// vector — the last replicated O(n) structure inside the ranks — stays an
// O(n/p) slab end to end. Ordering returns a distributed vector,
// redistribution resolves labels through a two-sided window lookup (one
// extra O(n/q) alltoallv), and the rhs relabel becomes a local slab read.
//
// Contracts pinned here:
//  * dist_rcm_sharded's slab, gathered, equals dist_order bit for bit, and
//    a request for any algorithm but RCM is a named CheckError;
//  * ordered_solve under sharded_labels reproduces the replicated-label
//    path BIT FOR BIT (labels, bandwidth, iteration count, solution slabs)
//    across the {1,4,9,16} rank wall, load balancing on and off;
//  * the sharded route costs exactly two extra redistribute crossings
//    (kRedistribute = 8 vs the replicated one-shot's 6 at p = 4);
//  * the per-rank resident peak stays inside the sharded budget, which
//    carries an O(n/q) window term but NO O(n) term;
//  * sharded_labels without the one-shot redistribution is a structured
//    precondition failure, not a silent fallback.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "dist_rank_matrix.hpp"
#include "mpsim/runtime.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"

namespace drcm::rcm {
namespace {

using mps::Comm;
using mps::Runtime;
namespace gen = sparse::gen;

std::vector<double> wavy_rhs(index_t n) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] =
        1.0 + 0.5 * static_cast<double>((i * 2654435761u) % 1000) / 1000.0;
  }
  return b;
}

/// One ordered solve on a fresh grid of `world`. SPMD body.
OrderedSolveResult solve(Comm& world, const sparse::CsrMatrix& m,
                         const std::vector<double>& b,
                         const DistRcmOptions& options,
                         const solver::CgOptions& cg = {}) {
  dist::ProcGrid2D grid(world);
  OrderedSolveSpec spec;
  spec.matrix = &m;
  spec.b = b;
  spec.rcm = options;
  spec.cg = cg;
  return ordered_solve(grid, spec);
}

TEST(ShardedLabels, DistRcmShardedGathersToTheReplicatedLabels) {
  for (const int p : dist::testing::rank_counts()) {
    for (const bool balance : {false, true}) {
      const auto adjacency = gen::relabel_random(gen::grid2d(15, 17), 11);
      DistRcmOptions options;
      options.load_balance = balance;
      Runtime::run(p, [&](Comm& world) {
        dist::ProcGrid2D grid(world);
        auto slab = dist_rcm_sharded(world, grid, adjacency, options);
        const auto gathered = slab.to_global(world);
        const auto replicated = dist_order(world, adjacency, options);
        EXPECT_EQ(gathered, replicated)
            << "p=" << p << " load_balance=" << balance;
      });
    }
  }
}

TEST(ShardedLabels, DistRcmShardedHonorsTheRequestedAlgorithm) {
  // dist_rcm_sharded is RCM-only, and says so: a Sloan or GPS request is a
  // named CheckError raised before any collective, never a silent RCM
  // ordering. kAuto resolves exactly as dist_order resolves it.
  const auto adjacency = gen::relabel_random(gen::grid2d(9, 11), 5);
  const bool auto_is_rcm =
      select_ordering(adjacency).algorithm == OrderingAlgorithm::kRcm;
  for (const int p : dist::testing::rank_counts()) {
    Runtime::run(p, [&](Comm& world) {
      dist::ProcGrid2D grid(world);
      for (const auto algorithm :
           {OrderingAlgorithm::kSloan, OrderingAlgorithm::kGps}) {
        DistRcmOptions options;
        options.ordering.algorithm = algorithm;
        EXPECT_THROW(dist_rcm_sharded(world, grid, adjacency, options),
                     CheckError)
            << ordering_algorithm_name(algorithm) << " p=" << p;
      }
      DistRcmOptions options;
      options.ordering.algorithm = OrderingAlgorithm::kAuto;
      if (!auto_is_rcm) {
        EXPECT_THROW(dist_rcm_sharded(world, grid, adjacency, options),
                     CheckError);
        return;
      }
      DistRcmStats stats;
      const auto gathered =
          dist_rcm_sharded(world, grid, adjacency, options, &stats)
              .to_global(world);
      EXPECT_EQ(stats.algorithm, OrderingAlgorithm::kRcm);
      EXPECT_EQ(gathered, dist_order(world, adjacency, options)) << "p=" << p;
    });
  }
}

TEST(ShardedLabels, OrderedSolveBitIdenticalAcrossTheRankWall) {
  for (const int p : dist::testing::rank_counts_wall()) {
    for (const bool balance : {false, true}) {
      const auto m = gen::with_laplacian_values(
          gen::relabel_random(gen::grid2d(18, 19), 7), 0.02);
      const auto b = wavy_rhs(m.n());
      solver::CgOptions cg;
      cg.rtol = 1e-8;
      DistRcmOptions sharded;
      sharded.sharded_labels = true;
      sharded.load_balance = balance;
      DistRcmOptions replicated;
      replicated.load_balance = balance;

      std::vector<std::vector<double>> sharded_slabs(
          static_cast<std::size_t>(p));
      std::vector<std::vector<double>> replicated_slabs(
          static_cast<std::size_t>(p));
      OrderedSolveResult got;
      OrderedSolveResult want;
      Runtime::run(p, [&](Comm& world) {
        auto a = solve(world, m, b, sharded, cg);
        sharded_slabs[static_cast<std::size_t>(world.rank())] =
            std::move(a.x_local);
        auto c = solve(world, m, b, replicated, cg);
        replicated_slabs[static_cast<std::size_t>(world.rank())] =
            std::move(c.x_local);
        if (world.rank() == 0) {
          got = std::move(a);
          want = std::move(c);
        }
      });

      ASSERT_TRUE(got.cg.converged);
      ASSERT_TRUE(want.cg.converged);
      EXPECT_EQ(got.labels, want.labels)
          << "p=" << p << " load_balance=" << balance;
      EXPECT_EQ(got.permuted_bandwidth, want.permuted_bandwidth);
      EXPECT_EQ(got.cg.iterations, want.cg.iterations);
      for (int r = 0; r < p; ++r) {
        const auto& xs = sharded_slabs[static_cast<std::size_t>(r)];
        const auto& xr = replicated_slabs[static_cast<std::size_t>(r)];
        ASSERT_EQ(xs.size(), xr.size()) << "p=" << p << " rank " << r;
        for (std::size_t k = 0; k < xs.size(); ++k) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(xs[k]),
                    std::bit_cast<std::uint64_t>(xr[k]))
              << "p=" << p << " rank " << r << " slot " << k;
        }
      }
    }
  }
}

TEST(ShardedLabels, RedistributeCrossingsPinnedAtFourRanks) {
  // The price of never replicating the labels, in barrier crossings at
  // p = 4: the replicated one-shot route pays 6 in kRedistribute (fused
  // matrix alltoallv chain = 3, bandwidth allreduce = 1, rhs slab
  // exchange = 2, each collective two crossings except the fused chain's
  // three); the sharded route adds ONE label-window alltoallv (= 2) for a
  // pinned total of 8. Any drift here is a synchrony regression.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(14, 14), 3), 0.02);
  const auto b = wavy_rhs(m.n());
  for (const bool shard : {false, true}) {
    DistRcmOptions options;
    options.sharded_labels = shard;
    const auto report = Runtime::run(4, [&](Comm& world) {
      solve(world, m, b, options);
    });
    const std::uint64_t want = shard ? 8 : 6;
    for (std::size_t r = 0; r < report.ranks.size(); ++r) {
      EXPECT_EQ(report.ranks[r].phase(mps::Phase::kRedistribute)
                    .barrier_crossings,
                want)
          << "sharded=" << shard << " rank " << r;
    }
  }
}

TEST(ShardedLabels, ResidentPeakStaysInsideTheShardedBudget) {
  // External re-check of the ledger bound ordered_solve asserts
  // internally: one-shot terms plus the O(n/q) label windows — and no
  // O(n) term, which is the point of the satellite.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid3d(5, 6, 7, gen::Stencil3d::k27), 2), 0.02);
  const auto b = wavy_rhs(m.n());
  for (const int p : dist::testing::rank_counts()) {
    DistRcmOptions options;
    options.sharded_labels = true;
    const auto report = Runtime::run(p, [&](Comm& world) {
      solve(world, m, b, options);
    });
    const auto q = static_cast<u64>(dist::grid_side_floor(p));
    const auto budget = 24 * static_cast<u64>(m.nnz()) / static_cast<u64>(p) +
                        48 * static_cast<u64>(m.n()) / static_cast<u64>(p) +
                        4096 + 16 * static_cast<u64>(m.n()) / q;
    EXPECT_LE(report.max_peak_resident(), budget) << "p=" << p;
  }
}

}  // namespace
}  // namespace drcm::rcm
