// The value-carrying pipeline wall: numerical values must survive the
// whole distributed pipeline bit for bit.
//
//  * dist_pcg on the distributed row blocks (redistribute_to_row_blocks
//    under identity labels) vs the replicated-CSR overload: identical
//    iteration counts, solutions equal to 1e-12;
//  * a fault-plan sweep over the one-shot redistribution: death or
//    corruption at every collective terminates structured;
//  * ordered_solve end to end: the one-call RCM -> permute -> CG pipeline
//    reproduces the replicated path over the {1,4,9,16} rank wall, load
//    balancing off and on, and keeps every rank's resident peak inside the
//    O(nnz/p + n/p) ledger budget — the property both the gather-based
//    path and a permuted-2D intermediate would violate.
// The one-shot block itself is checked against the serial permutation in
// tests/test_dist_redistribute.cpp. The other suites sweep the {1,4,9}
// simulated rank matrix; DRCM_TEST_RANKS pins one cell, as in CI.
#include <gtest/gtest.h>

#include <string>

#include "dist/redistribute.hpp"
#include "dist_rank_matrix.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/runtime.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/rcm_driver.hpp"
#include "solver/dist_cg.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

namespace drcm::dist {
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

TEST(DistributedCg, MatchesTheReplicatedOverloadExactly) {
  // Same world, both overloads back to back: the distributed row-block
  // build must reproduce the replicated slicing bit for bit — identical
  // iteration counts and solutions within 1e-12. The slab overload returns
  // only this rank's rows; the explicit gather_solution opt-in replicates
  // it for the comparison (and the slab itself must be the owned slice of
  // the gathered vector, bit for bit).
  for (const int p : testing::rank_counts()) {
    const auto pattern = gen::relabel_random(gen::grid2d(24, 24), 6);
    const auto m = gen::with_laplacian_values(pattern, 0.02);
    const auto b = wavy_rhs(m.n());
    for (const bool precondition : {true, false}) {
      Runtime::run(p, [&](Comm& world) {
        solver::CgOptions opt;
        opt.rtol = 1e-8;
        std::vector<double> x_rep;
        const auto rep = solver::dist_pcg(world, m, b, x_rep, precondition, opt);

        ProcGrid2D grid(world);
        const auto block =
            redistribute_to_row_blocks(
                m, sparse::identity_permutation(m.n()), grid)
                .block;
        const auto b_local =
            std::span<const double>(b).subspan(
                static_cast<std::size_t>(block.lo),
                static_cast<std::size_t>(block.local_rows()));
        std::vector<double> x_slab;
        const auto got =
            solver::dist_pcg(world, block, b_local, x_slab, precondition, opt);
        ASSERT_EQ(x_slab.size(),
                  static_cast<std::size_t>(block.local_rows()));
        const auto x_dist = solver::gather_solution(world, x_slab, m.n());

        EXPECT_TRUE(rep.converged);
        EXPECT_TRUE(got.converged);
        EXPECT_EQ(got.iterations, rep.iterations)
            << "p=" << p << " precondition=" << precondition;
        ASSERT_EQ(x_dist.size(), x_rep.size());
        for (std::size_t i = 0; i < x_rep.size(); ++i) {
          EXPECT_NEAR(x_dist[i], x_rep[i], 1e-12);
        }
        for (index_t g = block.lo; g < block.hi; ++g) {
          EXPECT_EQ(x_slab[static_cast<std::size_t>(g - block.lo)],
                    x_dist[static_cast<std::size_t>(g)])
              << "the slab is the owned slice of the gathered solution";
        }
      });
    }
  }
}

TEST(OneShotRedistribute, FaultSweepOverTheFusedCollectiveTerminatesStructured) {
  // Death and payload corruption at EVERY collective of the one-shot step
  // (the grid's two splits, the fused alltoallv, the bandwidth allreduce):
  // each scenario must end in a structured error or a completed run with
  // the correct row partition — never a hang (watchdog as backstop) or a
  // raw abort. Death must always surface as a throw.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(12, 12), 4), 0.02);
  const auto labels = sparse::random_permutation(m.n(), 21);
  for (int ordinal = 1; ordinal <= 4; ++ordinal) {
    for (const bool death : {true, false}) {
      SCOPED_TRACE("ordinal=" + std::to_string(ordinal) +
                   (death ? " death" : " corruption"));
      mps::FaultPlan plan;
      if (death) {
        plan.die_at(1, ordinal);
      } else {
        plan.corrupt_at(1, ordinal);
      }
      mps::RunOptions options;
      options.faults = &plan;
      options.watchdog_seconds = 20.0;
      bool threw = false;
      try {
        Runtime::run(4, [&](Comm& world) {
          ProcGrid2D grid(world);
          const auto fused = redistribute_to_row_blocks(m, labels, grid);
          EXPECT_EQ(fused.block.lo, row_block_lo(m.n(), 4, world.rank()));
          EXPECT_EQ(fused.block.hi, row_block_lo(m.n(), 4, world.rank() + 1));
        }, options);
      } catch (const std::exception& e) {
        threw = true;
        EXPECT_FALSE(std::string(e.what()).empty());
      }
      if (death) {
        EXPECT_TRUE(threw) << "a rank death cannot pass silently";
      }
    }
  }
}

TEST(OrderedSolve, ReproducesTheReplicatedPipelineAndItsIterationCount) {
  // Over the {1,4,9,16} rank wall, load balancing off and on: the labels
  // are dist_order's (serial RCM's when unbalanced), the bandwidth is the
  // serial bandwidth under them, and the solve is bit-identical to the
  // replicated path on the gathered permuted matrix. Block-Jacobi has one
  // block per rank, so only the unpreconditioned iteration count is the
  // same at every p.
  const auto pattern = gen::relabel_random(gen::grid2d(22, 22), 8);
  const auto m = gen::with_laplacian_values(pattern, 0.02);
  const auto adjacency = m.strip_diagonal();
  const auto b = wavy_rhs(m.n());
  solver::CgOptions opt;
  opt.rtol = 1e-8;
  for (const bool balance : {false, true}) {
    rcm::DistRcmOptions options;
    options.load_balance = balance;
    for (const bool precondition : {true, false}) {
      int first_iterations = -1;
      for (const int p : testing::rank_counts_wall()) {
        SCOPED_TRACE("p=" + std::to_string(p) +
                     " load_balance=" + std::to_string(balance) +
                     " precondition=" + std::to_string(precondition));
        const auto run =
            rcm::run_ordered_solve(p, m, b, precondition, options, opt);
        ASSERT_TRUE(run.result.cg.converged);
        const auto& labels = run.result.labels;
        EXPECT_EQ(labels, rcm::run_dist_order(p, adjacency, options).labels);
        if (!balance) {
          EXPECT_EQ(labels, order::rcm_serial(adjacency));
        }
        EXPECT_EQ(run.result.permuted_bandwidth,
                  sparse::bandwidth_with_labels(adjacency, labels));
        if (!precondition) {
          if (first_iterations < 0) first_iterations = run.result.cg.iterations;
          EXPECT_EQ(run.result.cg.iterations, first_iterations);
        }

        const auto pm = sparse::permute_symmetric(m, labels);
        std::vector<double> b_perm(b.size());
        for (index_t i = 0; i < m.n(); ++i) {
          b_perm[static_cast<std::size_t>(labels[static_cast<std::size_t>(i)])] =
              b[static_cast<std::size_t>(i)];
        }
        const auto ref = solver::run_dist_pcg(p, pm, b_perm, precondition, opt);
        ASSERT_TRUE(ref.result.converged);
        EXPECT_EQ(run.result.cg.iterations, ref.result.iterations);
        ASSERT_EQ(run.result.x.size(), b.size());
        for (index_t i = 0; i < m.n(); ++i) {
          const auto xi =
              ref.x[static_cast<std::size_t>(labels[static_cast<std::size_t>(i)])];
          EXPECT_NEAR(run.result.x[static_cast<std::size_t>(i)], xi, 1e-12);
        }
      }
    }
  }
}

TEST(OrderedSolve, LedgerProvesNoRankMaterializesTheFullMatrix) {
  // A high-degree matrix (27-point stencil: nnz ~ 26 n). On the one-shot
  // default path the pipeline's per-rank ledger peak is bounded by
  // O(nnz/p + n/p): no permuted-2D intermediate (whose q diagonal blocks
  // concentrate Theta(nnz/q) of the banded output) and no replicated O(n)
  // value vector exist anywhere between the ordering and the solve. From
  // p = 9 on, that peak sits strictly BELOW the full-CSR footprint every
  // rank of the gather-based path pins — the "no rank materializes the
  // full matrix" property — while the replicated dist_pcg overload's own
  // ledger records the gathered footprint it pays.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid3d(6, 6, 10, gen::Stencil3d::k27), 5), 0.02);
  const auto b = wavy_rhs(m.n());
  const auto full_csr_elements =
      static_cast<u64>(m.n() + 1) + 2 * static_cast<u64>(m.nnz());
  for (const int p : testing::rank_counts()) {
    if (p < 4) continue;  // at p = 1 "distributed" and "gathered" coincide
    const auto run = rcm::run_ordered_solve(p, m, b);
    ASSERT_TRUE(run.result.cg.converged);
    const auto peak = run.report.max_peak_resident();
    EXPECT_GT(peak, 0u);
    // ordered_solve also asserts this budget internally (and would have
    // thrown); re-check the reported one-shot O(nnz/p + n/p) ledger bound
    // from the outside. No O(n) or O(nnz/q) term: that absence IS the
    // contract.
    EXPECT_LE(peak, 24 * static_cast<u64>(m.nnz()) / static_cast<u64>(p) +
                        48 * static_cast<u64>(m.n()) / static_cast<u64>(p) +
                        4096);
    if (p >= 9) {
      EXPECT_LT(peak, full_csr_elements)
          << "p=" << p << ": some rank held the full permuted matrix";
    }

    const auto rep = solver::run_dist_pcg(p, m, b, true);
    EXPECT_GE(rep.report.max_peak_resident(), full_csr_elements)
        << "the replicated path must record its gathered footprint";
  }
}

}  // namespace
}  // namespace drcm::dist
