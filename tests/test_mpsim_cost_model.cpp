// Unit tests for the alpha-beta-gamma cost model formulas, plus the
// barrier-crossing ledger that pins the synchrony budgets: 0 crossings to
// build a grid, 2 per BFS level and per standalone SpMSpV, 1 for the empty
// call that ends a BFS (or an empty standalone SpMSpV), and 3 per whole
// ordering level, 2 on the terminal one (vs 6 for the standalone SORTPERM
// alone) — and the trace model's analytic crossing prediction, speculative
// sweeps included, against a real p=4 run's ledger — and 6 crossings per
// CG iteration, with a solve-plan hit skipping the symbolic collectives.
#include "mpsim/cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dist/level_kernel.hpp"
#include "dist/sortperm.hpp"
#include "dist/spmspv.hpp"
#include "mpsim/runtime.hpp"
#include "rcm/dist_bfs.hpp"
#include "rcm/rcm_driver.hpp"
#include "rcm/trace_model.hpp"
#include "service/service.hpp"
#include "sparse/generators.hpp"
#include "sparse/pattern_delta.hpp"

namespace drcm::mps {
namespace {

MachineParams simple_params() {
  MachineParams p;
  p.alpha = 1.0;   // 1 second per message: costs readable in the tests
  p.beta = 0.01;   // per word
  p.gamma = 0.001; // per work unit
  return p;
}

TEST(CostModel, SingleRankCollectivesAreFree) {
  CostModel m(simple_params());
  EXPECT_DOUBLE_EQ(m.barrier(1).seconds, 0.0);
  EXPECT_DOUBLE_EQ(m.allreduce(1, 1).seconds, 0.0);
  EXPECT_DOUBLE_EQ(m.allgatherv(1, 100).seconds, 0.0);
  EXPECT_DOUBLE_EQ(m.alltoallv(1, 100, 100).seconds, 0.0);
  EXPECT_DOUBLE_EQ(m.exscan(1, 1).seconds, 0.0);
}

TEST(CostModel, BarrierIsLogDepth) {
  CostModel m(simple_params());
  EXPECT_EQ(m.barrier(2).messages, 1u);
  EXPECT_EQ(m.barrier(4).messages, 2u);
  EXPECT_EQ(m.barrier(5).messages, 3u);
  EXPECT_EQ(m.barrier(1024).messages, 10u);
}

TEST(CostModel, AllgathervIsLinearInRanks) {
  // The paper's T_SpMSpV has an alpha*sqrt(p) per-iteration latency term:
  // allgatherv on a q-rank (sub)communicator must cost (q-1) messages.
  CostModel m(simple_params());
  EXPECT_EQ(m.allgatherv(8, 0).messages, 7u);
  EXPECT_EQ(m.allgatherv(32, 0).messages, 31u);
  EXPECT_NEAR(m.allgatherv(8, 1000).seconds, 7.0 + 0.01 * 1000, 1e-12);
}

TEST(CostModel, AlltoallvChargesMaxDirection) {
  CostModel m(simple_params());
  const auto c1 = m.alltoallv(4, 100, 900);
  const auto c2 = m.alltoallv(4, 900, 100);
  EXPECT_DOUBLE_EQ(c1.seconds, c2.seconds);
  EXPECT_EQ(c1.words, 900u);
  EXPECT_NEAR(c1.seconds, 3.0 + 0.01 * 900, 1e-12);
}

TEST(CostModel, AllreduceIsTwiceTreeDepth) {
  CostModel m(simple_params());
  EXPECT_EQ(m.allreduce(16, 1).messages, 8u);
  EXPECT_NEAR(m.allreduce(16, 1).seconds, 8 * (1.0 + 0.01), 1e-12);
}

TEST(CostModel, ComputeSecondsScalesWithGamma) {
  CostModel m(simple_params());
  EXPECT_NEAR(m.compute_seconds(1e6), 1000.0, 1e-9);
}

TEST(CostModel, RejectsInvalidCommunicatorSize) {
  CostModel m(simple_params());
  EXPECT_THROW(m.barrier(0), CheckError);
}

TEST(CostModel, CommCostAccumulates) {
  CommCost a{1.0, 2, 3};
  CommCost b{0.5, 1, 7};
  a += b;
  EXPECT_DOUBLE_EQ(a.seconds, 1.5);
  EXPECT_EQ(a.messages, 3u);
  EXPECT_EQ(a.words, 10u);
}

TEST(CrossingLedger, EveryCollectiveIsTwoCrossingsBarrierIsOne) {
  const auto report = Runtime::run(4, [](Comm& world) {
    {
      PhaseScope scope(world, Phase::kSolver);
      world.barrier();  // 1 crossing
    }
    {
      PhaseScope scope(world, Phase::kOther);
      world.allreduce(1, [](int a, int b) { return a + b; });  // 2 crossings
      world.allgatherv(std::span<const int>{});                // 2 crossings
    }
  });
  EXPECT_EQ(report.aggregate(Phase::kSolver).max.barrier_crossings, 1u);
  EXPECT_EQ(report.aggregate(Phase::kOther).max.barrier_crossings, 4u);
}

TEST(CrossingLedger, BuildingAGridCrossesNoBarrier) {
  // The grid has no sub-communicator: its coordinates and column ranks
  // are arithmetic on the world rank.
  for (const int p : {1, 4, 9}) {
    const auto report =
        Runtime::run(p, [](Comm& world) { dist::ProcGrid2D grid(world); });
    for (const auto& rank : report.ranks) {
      EXPECT_EQ(rank.total().barrier_crossings, 0u) << "p=" << p;
    }
  }
}

TEST(CrossingLedger, StandaloneSpmspvIsTwoCrossingsOneWhenEmpty) {
  // grid2d(8, 8) on the 2 x 2 grid from vertex 27 (owned by rank 2):
  // column 0 (ranks 0, 2) gathers the one entry (2 words); rank 0 expands
  // it to rows 19, 26, 28 and routes them to their owner, rank 2
  // (6 words); rank 2 expands it to row 35 and routes it to rank 1
  // (2 words, charged as max(sent, received) = 6). Every rank adds the
  // 4-word count allreduce. A frontier that is empty everywhere exits
  // after crossing 1 with the count allreduce alone.
  const auto a = sparse::gen::grid2d(8, 8);
  std::vector<std::vector<dist::VecEntry>> got(4);
  const auto report = Runtime::run(4, [&](Comm& world) {
    dist::ProcGrid2D grid(world);
    dist::DistSpMat mat(grid, a);
    dist::DistSpVec x(mat.vec_dist(), grid);
    {
      PhaseScope scope(world, Phase::kOrderingSpmspv);
      const auto empty = dist::spmspv_select2nd_min(mat, x, grid);
      EXPECT_TRUE(empty.entries().empty());
    }
    if (x.lo() <= 27 && 27 < x.hi()) x.assign({dist::VecEntry{27, 0}});
    PhaseScope scope(world, Phase::kPeripheralSpmspv);
    got[static_cast<std::size_t>(world.rank())] =
        dist::spmspv_select2nd_min(mat, x, grid).entries();
  });
  const std::vector<std::vector<dist::VecEntry>> want{
      {}, {{35, 0}}, {{19, 0}, {26, 0}, {28, 0}}, {}};
  EXPECT_EQ(got, want);
  const std::uint64_t words[] = {12, 4, 12, 4};
  for (std::size_t r = 0; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto& ledger = report.ranks[r];
    EXPECT_EQ(ledger.phase(Phase::kOrderingSpmspv).barrier_crossings, 1u);
    EXPECT_EQ(ledger.phase(Phase::kOrderingSpmspv).words, 4u);
    EXPECT_EQ(ledger.phase(Phase::kPeripheralSpmspv).barrier_crossings, 2u);
    EXPECT_EQ(ledger.phase(Phase::kPeripheralSpmspv).words, words[r]);
  }
}

TEST(CrossingLedger, FusedLevelKernelChargesTwoCrossingsPerLevel) {
  // One BFS level through dist::bfs_level_step costs TWO barrier
  // crossings — the frontier's global count rides crossing 1, so there is
  // no count superstep.
  const auto a = sparse::gen::grid2d(8, 8);
  const auto report = Runtime::run(4, [&](Comm& world) {
    dist::ProcGrid2D grid(world);
    dist::DistSpMat mat(grid, a);
    dist::DistDenseVec levels(mat.vec_dist(), grid, kNoVertex);
    if (levels.owns(27)) levels.set(27, 0);
    dist::DistSpVec frontier(mat.vec_dist(), grid);
    if (frontier.lo() <= 27 && 27 < frontier.hi()) {
      frontier.assign({dist::VecEntry{27, 0}});
    }
    dist::bfs_level_step(mat, frontier, levels, kNoVertex, grid,
                         Phase::kOrderingSpmspv, Phase::kOrderingOther);
  });
  const auto fused =
      report.aggregate(Phase::kOrderingSpmspv).max.barrier_crossings +
      report.aggregate(Phase::kOrderingOther).max.barrier_crossings;
  EXPECT_EQ(fused, 2u) << "the fused kernel's synchrony budget";
}

TEST(CrossingLedger, TerminalBfsLevelIsOneCrossing) {
  // The call that finds its frontier empty everywhere — the one that ends
  // every BFS — exits after crossing 1, uniformly on every rank, and a
  // whole BFS of eccentricity L costs 2(L + 1) + 1 crossings.
  const auto a = sparse::gen::path(6);
  const auto report = Runtime::run(4, [&](Comm& world) {
    dist::ProcGrid2D grid(world);
    dist::DistSpMat mat(grid, a);
    dist::DistDenseVec levels(mat.vec_dist(), grid, kNoVertex);
    const dist::DistSpVec empty(mat.vec_dist(), grid);
    const auto step = dist::bfs_level_step(
        mat, empty, levels, kNoVertex, grid, Phase::kOrderingSpmspv,
        Phase::kOrderingOther);
    EXPECT_EQ(step.frontier_nnz, 0);
    EXPECT_TRUE(step.next.entries().empty());
    const auto bfs = rcm::dist_bfs(mat, 0, levels, grid,
                                   Phase::kPeripheralSpmspv,
                                   Phase::kPeripheralOther);
    EXPECT_EQ(bfs.eccentricity, 5);
  });
  EXPECT_EQ(report.aggregate(Phase::kOrderingSpmspv).max.barrier_crossings,
            1u);
  EXPECT_EQ(report.aggregate(Phase::kPeripheralSpmspv).max.barrier_crossings +
                report.aggregate(Phase::kPeripheralOther).max.barrier_crossings,
            2u * 6 + 1);
}

TEST(CrossingLedger, FusedOrderingLevelIsAtMostThreeCrossings) {
  // The ordering-level tentpole: one WHOLE Cuthill-McKee ordering level
  // (SpMSpV + SELECT + SORTPERM + SET) through dist::cm_level_step costs
  // THREE barrier crossings — expand and deal on the SpMSpV ledger, the
  // label delivery on the sort ledger — while the standalone
  // sortperm_bucket alone (deal alltoallv + count allgather + scatter-back
  // alltoallv) pays 6 on the level it discovered.
  const auto a = sparse::gen::grid2d(8, 8);
  const auto report = Runtime::run(4, [&](Comm& world) {
    dist::ProcGrid2D grid(world);
    dist::DistSpMat mat(grid, a);
    const auto degrees = mat.degrees(grid);
    std::vector<dist::VecEntry> column;
    if (mat.vec_dist().owner_col(27) == grid.col()) column.push_back({27, 0});
    dist::DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);
    if (labels.owns(27)) labels.set(27, 0);
    const auto level = dist::cm_level_step(
        mat, column, labels, degrees, /*label_lo=*/0, /*label_hi=*/1,
        /*next_label=*/1, grid, Phase::kOrderingSpmspv, Phase::kOrderingSort,
        Phase::kOrderingOther);
    PhaseScope scope(world, Phase::kSolver);
    (void)dist::sortperm_bucket(level.next, degrees, 0, 1, grid);
  });
  const auto fused =
      report.aggregate(Phase::kOrderingSpmspv).max.barrier_crossings +
      report.aggregate(Phase::kOrderingSort).max.barrier_crossings +
      report.aggregate(Phase::kOrderingOther).max.barrier_crossings;
  EXPECT_LE(fused, 3u) << "the fused ordering level's synchrony contract";
  EXPECT_EQ(fused, 3u) << "expand + deal + label delivery";
  EXPECT_EQ(report.aggregate(Phase::kOrderingSort).max.barrier_crossings, 1u);
  // The level {19, 26, 28, 35} has one parent, so worker 0 receives the
  // whole deal (4 triples of 3 words) and sends each of the 4 labels (2
  // words) to the q = 2 ranks of its owner's column: no histogram words.
  EXPECT_EQ(report.aggregate(Phase::kOrderingSort).max.words,
            3u * 4 + 2u * 2 * 4);
  EXPECT_EQ(report.aggregate(Phase::kSolver).max.barrier_crossings, 6u)
      << "the standalone SORTPERM's three collectives";
}

TEST(CrossingLedger, TerminalOrderingLevelSkipsTheSortTail) {
  // When the deal counts report an empty next level, every rank skips the
  // label superstep uniformly: the termination level costs 2 crossings
  // (expand + deal) and touches neither the sort ledger nor labels.
  const auto a = sparse::gen::path(2);
  const auto report = Runtime::run(4, [&](Comm& world) {
    dist::ProcGrid2D grid(world);
    dist::DistSpMat mat(grid, a);
    const auto degrees = mat.degrees(grid);
    dist::DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);
    if (labels.owns(0)) labels.set(0, 0);
    if (labels.owns(1)) labels.set(1, 1);
    std::vector<dist::VecEntry> column;
    if (mat.vec_dist().owner_col(1) == grid.col()) column.push_back({1, 1});
    const auto step = dist::cm_level_step(
        mat, column, labels, degrees, /*label_lo=*/1, /*label_hi=*/2,
        /*next_label=*/2, grid, Phase::kOrderingSpmspv, Phase::kOrderingSort,
        Phase::kOrderingOther);
    EXPECT_EQ(step.global_nnz, 0);
    EXPECT_TRUE(column.empty()) << "no level follows the terminal one";
  });
  EXPECT_EQ(report.aggregate(Phase::kOrderingSpmspv).max.barrier_crossings,
            2u);
  EXPECT_EQ(report.aggregate(Phase::kOrderingSort).max.barrier_crossings, 0u);
}

TEST(CrossingLedger, TraceModelPredictsTheRealLedger) {
  // The trace model prices the fused kernels per level; its predicted
  // Peripheral:* and Ordering:* crossing counts must match the mpsim
  // ledger of a real p=4 run EXACTLY — every collective of the algorithm
  // is accounted for analytically.
  const sparse::CsrMatrix graphs[] = {
      sparse::gen::grid2d(8, 8),
      sparse::gen::erdos_renyi(120, 4.0, 7),  // possibly multi-component
      sparse::gen::star(17),
      sparse::gen::small_world(80, 2, 0.1, 4),  // a discarded sweep
      sparse::gen::disjoint_union(               // one-sweep components
          {sparse::gen::path(5), sparse::gen::empty_graph(2)}),
  };
  for (const auto& a : graphs) {
    const auto run = rcm::run_dist_order(4, a);
    std::uint64_t ordering = 0, peripheral = 0;
    for (const auto phase : {Phase::kOrderingSpmspv, Phase::kOrderingSort,
                             Phase::kOrderingOther}) {
      ordering += run.report.aggregate(phase).max.barrier_crossings;
    }
    for (const auto phase : {Phase::kPeripheralSpmspv, Phase::kPeripheralOther}) {
      peripheral += run.report.aggregate(phase).max.barrier_crossings;
    }
    const auto trace = rcm::ExecutionTrace::collect(a);
    const auto c = rcm::project_cost(trace, 4, 1);
    EXPECT_EQ(c.ordering_crossings(), ordering) << "n=" << a.n();
    EXPECT_EQ(c.peripheral_crossings(), peripheral) << "n=" << a.n();
  }
}

TEST(CrossingLedger, TraceModelPredictsTheHybridLedger) {
  // The hybrid pin, mirroring TraceModelPredictsTheRealLedger: a real p=4
  // run with 6 threads per rank (the paper's hybrid configuration) must
  // match project_cost(trace, 4*6 cores, 6 threads/process) — same P, so
  // the analytic crossing prediction is EXACTLY the hybrid run's ledger,
  // and three invariants tie the two cost paths together per phase:
  //   * crossings do not depend on the thread count (communication stays
  //     on one thread per rank),
  //   * modeled comm seconds are bitwise those of the flat run (identical
  //     collectives, identical payloads),
  //   * modeled compute seconds are the flat run's divided by 6 (the
  //     ledger's hybrid rule; the trace model divides by total cores).
  const sparse::CsrMatrix graphs[] = {
      sparse::gen::grid2d(8, 8),
      sparse::gen::erdos_renyi(120, 4.0, 7),  // possibly multi-component
      sparse::gen::star(17),
      sparse::gen::small_world(80, 2, 0.1, 4),  // a discarded sweep
      sparse::gen::disjoint_union(               // one-sweep components
          {sparse::gen::path(5), sparse::gen::empty_graph(2)}),
  };
  for (const auto& a : graphs) {
    const auto flat = rcm::run_dist_order(4, a);  // threads = 1
    rcm::DistRcmOptions hybrid_opt;
    hybrid_opt.threads = 6;
    const auto hybrid = rcm::run_dist_order(4, a, hybrid_opt);

    std::uint64_t ordering = 0, peripheral = 0;
    for (const auto phase : {Phase::kOrderingSpmspv, Phase::kOrderingSort,
                             Phase::kOrderingOther}) {
      ordering += hybrid.report.aggregate(phase).max.barrier_crossings;
    }
    for (const auto phase :
         {Phase::kPeripheralSpmspv, Phase::kPeripheralOther}) {
      peripheral += hybrid.report.aggregate(phase).max.barrier_crossings;
    }
    const auto trace = rcm::ExecutionTrace::collect(a);
    const auto c = rcm::project_cost(trace, 24, 6);
    EXPECT_EQ(c.ordering_crossings(), ordering) << "n=" << a.n();
    EXPECT_EQ(c.peripheral_crossings(), peripheral) << "n=" << a.n();

    for (const auto phase :
         {Phase::kPeripheralSpmspv, Phase::kPeripheralOther,
          Phase::kOrderingSpmspv, Phase::kOrderingSort,
          Phase::kOrderingOther}) {
      const auto& f = flat.report.aggregate(phase).max;
      const auto& h = hybrid.report.aggregate(phase).max;
      EXPECT_EQ(h.barrier_crossings, f.barrier_crossings)
          << "n=" << a.n() << " phase=" << static_cast<int>(phase);
      EXPECT_DOUBLE_EQ(h.model_comm_seconds, f.model_comm_seconds)
          << "n=" << a.n() << " phase=" << static_cast<int>(phase);
      EXPECT_EQ(h.compute_units, f.compute_units)
          << "the raw work ledger is threading-invariant, n=" << a.n();
      EXPECT_NEAR(h.model_compute_seconds, f.model_compute_seconds / 6.0,
                  1e-12 + f.model_compute_seconds * 1e-9)
          << "n=" << a.n() << " phase=" << static_cast<int>(phase);
    }
  }
}

TEST(CrossingLedger, OrderedSolvePerformsExactlyOneMatrixRedistribution) {
  // The one-shot tentpole pin: everything charged to Phase::kRedistribute
  // in an ordered_solve is ONE fused matrix alltoallv (2 crossings), the
  // folded bandwidth allreduce (2) and the rhs slab alltoallv (2) — six
  // crossings total, with the grid's communicator splits deliberately
  // constructed outside the phase. Any second matrix redistribution
  // sneaking into the pipeline moves this exact count.
  const auto a = sparse::gen::with_laplacian_values(
      sparse::gen::relabel_random(sparse::gen::grid2d(10, 10), 3), 0.02);
  std::vector<double> b(static_cast<std::size_t>(a.n()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + static_cast<double>(i % 7);
  }
  const auto run =
      rcm::run_ordered_solve_recoverable(4, {.matrix = &a, .b = b});
  EXPECT_EQ(run.report.aggregate(Phase::kRedistribute).max.barrier_crossings,
            6u)
      << "one-shot: matrix alltoallv + bandwidth allreduce + rhs alltoallv";
}

TEST(CrossingLedger, DistPcgIsSixCrossingsPerIteration) {
  // The solver's synchrony budget as a closed form in the iteration count
  // K: the halo-setup alltoallv (2) and the setup r'r / r'z pair (2), then
  // per iteration one halo alltoallv (2), the p'Ap allreduce (2) and the
  // next r'r folded into the r'z allreduce (2). The residual test reads
  // the carried r'r, so convergence costs no extra collective: 4 + 6K.
  // The fold must not move the iterate: the iteration counts are pinned
  // too.
  const auto a = sparse::gen::with_laplacian_values(
      sparse::gen::relabel_random(sparse::gen::grid2d(10, 10), 3), 0.02);
  std::vector<double> b(static_cast<std::size_t>(a.n()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + static_cast<double>(i % 7);
  }
  for (const auto& [p, iterations] : {std::pair{1, 19}, std::pair{4, 31}}) {
    const auto run =
        rcm::run_ordered_solve_recoverable(p, {.matrix = &a, .b = b});
    ASSERT_TRUE(run.result.cg.converged) << "p=" << p;
    const int k = run.result.cg.iterations;
    EXPECT_EQ(k, iterations) << "p=" << p;
    EXPECT_EQ(run.report.aggregate(Phase::kSolver).max.barrier_crossings,
              static_cast<std::uint64_t>(4 + 6 * k))
        << "p=" << p << ": 6 crossings per CG iteration plus 4 of setup";
  }
}

TEST(CrossingLedger, PlanHitSkipsTheSymbolicCollectives) {
  // The cold pins' fixture, served twice by a 4-rank service: the second
  // request is a cache hit that reuses the solve plan. kRedistribute keeps
  // only the value-only matrix alltoallv (2) and the value-only rhs
  // alltoallv (2) — no bandwidth allreduce; kSolver loses the
  // halo-request alltoallv and keeps the setup dot pair: 2 + 6K. Words
  // drop from a 3-word triple and a 2-word rhs element to one word each.
  const auto a = sparse::gen::with_laplacian_values(
      sparse::gen::relabel_random(sparse::gen::grid2d(10, 10), 3), 0.02);
  std::vector<double> b(static_cast<std::size_t>(a.n()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + static_cast<double>(i % 7);
  }
  service::ServiceOptions options;
  options.ranks = 4;
  service::ReorderingService svc(options);
  service::OrderSolveRequest request;
  request.matrix = &a;
  request.b = b;
  const auto cold = svc.submit(request);
  const auto hit = svc.submit(request);
  ASSERT_EQ(cold.status, service::RequestStatus::kOk);
  ASSERT_EQ(hit.status, service::RequestStatus::kOk);
  ASSERT_TRUE(hit.plan_reused);
  ASSERT_TRUE(hit.cg.converged);
  const int k = hit.cg.iterations;
  EXPECT_EQ(k, 31) << "the p=4 iteration pin of DistPcgIsSixCrossingsPerIteration";

  const auto crossings = [](const service::OrderSolveResponse& r, Phase ph) {
    return r.report.aggregate(ph).max.barrier_crossings;
  };
  EXPECT_EQ(crossings(cold, Phase::kRedistribute), 6u);
  EXPECT_EQ(crossings(cold, Phase::kSolver), static_cast<std::uint64_t>(4 + 6 * k));
  EXPECT_EQ(crossings(hit, Phase::kRedistribute), 4u)
      << "value-only matrix alltoallv + value-only rhs alltoallv";
  EXPECT_EQ(crossings(hit, Phase::kSolver), static_cast<std::uint64_t>(2 + 6 * k))
      << "no halo-request alltoallv on a plan hit";
  EXPECT_LT(crossings(hit, Phase::kRedistribute) + crossings(hit, Phase::kSolver),
            crossings(cold, Phase::kRedistribute) + crossings(cold, Phase::kSolver));

  // Words, max over ranks: cold = 3 per routed entry + 2 for the
  // bandwidth allreduce + 2 per rhs element; the hit ships one word each.
  const auto words = [](const service::OrderSolveResponse& r) {
    return r.report.aggregate(Phase::kRedistribute).max.words;
  };
  EXPECT_EQ(words(cold), 480u);
  EXPECT_EQ(words(hit), 167u);
  EXPECT_LE(10 * words(hit), 4 * words(cold)) << "at most 0.4x the cold words";

  // The hit's ledger holds its rank's plan (and the numeric pass on top),
  // yet stays under the cold request's triple-exchange peak.
  std::vector<std::uint64_t> plan_elements(4, 0);
  Runtime::run(4, [&](Comm& world) {
    dist::ProcGrid2D grid(world);
    const auto labels = rcm::dist_order(world, a.strip_diagonal());
    solver::SolvePlan plan;
    rcm::OrderedSolveSpec spec;
    spec.matrix = &a;
    spec.b = b;
    spec.labels = &labels;
    spec.plan_out = &plan;
    (void)rcm::ordered_solve(grid, spec);
    plan_elements[static_cast<std::size_t>(world.rank())] =
        plan.resident_elements();
  });
  const auto hit_peak = hit.report.max_peak_resident();
  EXPECT_GE(hit_peak,
            *std::max_element(plan_elements.begin(), plan_elements.end()));
  EXPECT_LT(hit_peak, cold.report.max_peak_resident());
}

TEST(CrossingLedger, StandaloneSortpermIsSixCrossingsExactWords) {
  // The standalone sortperm_bucket's exact bill. Fixture: a FULL frontier
  // of n = 128 vertices on the 2 x 2 grid, degree = vertex id, parent
  // bucket = vertex id mod 4. Each rank owns 32 consecutive vertices, 8 in
  // every bucket, and worker w's parent stripe is bucket w, so every rank
  // deals 8 triples to each worker and receives 32. Per rank: the deal
  // alltoallv moves 32 triples of 3 words (96), the count allgather 4 words
  // (one per worker), and the scatter-back alltoallv 32 (index, position)
  // pairs of 2 words (64): 164 words over 2 + 2 + 2 crossings.
  constexpr index_t kN = 128;
  constexpr index_t kBuckets = 4;
  const auto report = Runtime::run(4, [&](Comm& world) {
    dist::ProcGrid2D grid(world);
    dist::VectorDist vdist(kN, grid.q());
    dist::DistDenseVec degrees(vdist, grid, 0);
    for (index_t g = degrees.lo(); g < degrees.hi(); ++g) {
      degrees.set(g, g);
    }
    dist::DistSpVec frontier(vdist, grid);
    std::vector<dist::VecEntry> mine;
    for (index_t g = frontier.lo(); g < frontier.hi(); ++g) {
      mine.push_back(dist::VecEntry{g, g % kBuckets});
    }
    frontier.assign(mine);
    PhaseScope scope(world, Phase::kOrderingSort);
    const auto ranked =
        dist::sortperm_bucket(frontier, degrees, 0, kBuckets, grid);
    EXPECT_EQ(ranked.entries().size(), mine.size());
  });
  const auto& sort = report.aggregate(Phase::kOrderingSort).max;
  EXPECT_EQ(sort.barrier_crossings, 6u)
      << "standalone SORTPERM: deal + count allgather + scatter-back";
  EXPECT_EQ(sort.words, 3u * 32 + 4u + 2u * 32);
}

TEST(CrossingLedger, RepairHitIsPricedStrictlyBetweenHitAndCold) {
  // The incremental-repair pricing pin: on a near-miss pattern the
  // service's repair path must land strictly between the two existing
  // price points — a cache hit's ZERO ordering crossings and a cold
  // recompute's full BFS + SORTPERM bill. Fixture: a two-component graph
  // with the delta confined to the small component, so the big component
  // reuses (peripheral search + every level step skipped) and the plan is
  // deterministically profitable. plan_repair's conservative margin
  // arithmetic against the speculative cold run (a reused component saves
  // all of cold's search and labeling but the seed argmin; a cone saves
  // the CM levels above it; a recompute costs the membership allreduce)
  // guarantees the strict inequality whenever a repair is scheduled; this
  // test keeps that guarantee tied to the ledger.
  // Window-aligned sizes (n = 400, window width 25): the small component
  // fills windows 14..15 exactly, so its dirty windows never bleed onto
  // the big component's rows.
  const auto big = sparse::gen::grid2d(14, 25);
  const auto small = sparse::gen::grid2d(5, 10);
  const auto adjacency = sparse::gen::disjoint_union({big, small});
  const auto delta = sparse::random_pattern_delta(adjacency, 1, 0, 42,
                                                  big.n(), adjacency.n());
  const auto base = sparse::gen::with_laplacian_values(adjacency, 0.02);
  const auto perturbed = sparse::gen::with_laplacian_values(
      sparse::apply_pattern_delta(adjacency, delta), 0.02);
  std::vector<double> b(static_cast<std::size_t>(base.n()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + static_cast<double>(i % 7);
  }

  service::ServiceOptions options;
  options.ranks = 4;
  service::ReorderingService service(options);

  service::OrderSolveRequest seed_rq;
  seed_rq.matrix = &base;
  seed_rq.b = b;
  const auto cold_base = service.submit(seed_rq);
  ASSERT_EQ(cold_base.status, service::RequestStatus::kOk);
  EXPECT_GT(cold_base.ordering_crossings, 0u);

  service::OrderSolveRequest delta_rq;
  delta_rq.matrix = &perturbed;
  delta_rq.b = b;
  const auto repaired = service.submit(delta_rq);
  ASSERT_EQ(repaired.status, service::RequestStatus::kOk);
  ASSERT_TRUE(repaired.repair_hit) << "the fixture must schedule a repair";

  service::ServiceOptions cold_options;
  cold_options.ranks = 4;
  cold_options.enable_repair = false;
  service::ReorderingService cold(cold_options);
  const auto reference = cold.submit(delta_rq);
  ASSERT_EQ(reference.status, service::RequestStatus::kOk);

  EXPECT_GT(repaired.ordering_crossings, 0u)
      << "a repair is not a hit: the cone re-level pays real collectives";
  EXPECT_LT(repaired.ordering_crossings, reference.ordering_crossings)
      << "a repair hit must cost strictly fewer ordering-phase crossings "
         "than the cold recompute it replaced";

  const auto rehit = service.submit(delta_rq);
  ASSERT_EQ(rehit.status, service::RequestStatus::kOk);
  EXPECT_TRUE(rehit.cache_hit);
  EXPECT_EQ(rehit.ordering_crossings, 0u);
}

TEST(CostModel, DefaultParametersAreSane) {
  // Guards against accidental unit mix-ups in the calibrated constants:
  // latency must dominate per-word cost, which must dominate per-op cost.
  MachineParams p;
  EXPECT_GT(p.alpha, p.beta);
  EXPECT_GT(p.beta, 0.0);
  EXPECT_GT(p.gamma, 0.0);
  EXPECT_GT(p.cores_per_node, 0);
}

}  // namespace
}  // namespace drcm::mps
