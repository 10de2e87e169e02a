// Fault-injection suite: scripted rank deaths, allocation failures,
// payload corruption and stalls driven through the mpsim collective-entry
// hook, the collective mismatch detector, the barrier watchdog, and the
// recoverable ordered_solve driver. Every scenario must terminate with a
// structured error or a bit-identical recovered result — zero hangs, zero
// raw aborts — and replays identically run over run (the plans are pure
// data; no timing or signals).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "dist/sortperm.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/runtime.hpp"
#include "rcm/dist_rcm.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"

namespace drcm {
namespace {

using mps::Comm;
using mps::FaultKind;
using mps::FaultPlan;
using mps::Runtime;
namespace gen = sparse::gen;

mps::RunOptions with_faults(FaultPlan* plan, double watchdog = 0.0) {
  mps::RunOptions options;
  options.faults = plan;
  options.watchdog_seconds = watchdog;
  return options;
}

TEST(FaultPlan, FindMatchesExactCoordinatesOneShot) {
  FaultPlan plan;
  plan.die_at(1, 3).corrupt_at(2, 5);
  EXPECT_EQ(plan.find(1, 2), nullptr);
  EXPECT_EQ(plan.find(0, 3), nullptr);
  mps::FaultAction* a = plan.find(1, 3);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, FaultKind::kRankDeath);
  a->fired = true;  // what the injection site does once the fault executed
  EXPECT_EQ(plan.find(1, 3), nullptr) << "actions are one-shot";
  plan.reset();
  EXPECT_NE(plan.find(1, 3), nullptr) << "reset forgets fired flags";
}

TEST(FaultPlan, RandomPlansAreSeedReproducible) {
  const FaultPlan a = FaultPlan::random(42, 4, 100, 8);
  const FaultPlan b = FaultPlan::random(42, 4, 100, 8);
  const FaultPlan c = FaultPlan::random(43, 4, 100, 8);
  ASSERT_EQ(a.actions().size(), 8u);
  bool differs = false;
  for (std::size_t i = 0; i < a.actions().size(); ++i) {
    EXPECT_EQ(a.actions()[i].rank, b.actions()[i].rank);
    EXPECT_EQ(a.actions()[i].at_collective, b.actions()[i].at_collective);
    EXPECT_EQ(a.actions()[i].kind, b.actions()[i].kind);
    if (a.actions()[i].rank != c.actions()[i].rank ||
        a.actions()[i].at_collective != c.actions()[i].at_collective) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs) << "different seeds must give different plans";
}

TEST(FaultInjection, RankDeathThrowsInjectedFaultNamingTheFault) {
  FaultPlan plan;
  plan.die_at(2, 3);
  try {
    Runtime::run(
        4,
        [](Comm& world) {
          for (int i = 0; i < 5; ++i) world.barrier();
        },
        with_faults(&plan));
    FAIL() << "expected InjectedFault";
  } catch (const mps::InjectedFault& e) {
    EXPECT_EQ(e.kind(), FaultKind::kRankDeath);
    EXPECT_EQ(e.rank(), 2);
    EXPECT_EQ(e.ordinal(), 3u);
    EXPECT_NE(std::string(e.what()).find("rank-death"), std::string::npos);
  }
}

TEST(FaultInjection, AllocFailureIsCatchableAsBadAlloc) {
  FaultPlan plan;
  plan.fail_alloc_at(1, 2);
  try {
    Runtime::run(
        4,
        [](Comm& world) {
          for (int i = 0; i < 4; ++i) world.barrier();
        },
        with_faults(&plan));
    FAIL() << "expected bad_alloc";
  } catch (const std::bad_alloc& e) {
    EXPECT_NE(std::string(e.what()).find("alloc-failure"), std::string::npos);
  }
}

TEST(FaultInjection, StallChargesModeledTimeAndCompletes) {
  FaultPlan plan;
  plan.stall_at(1, 2, 0.5);
  const auto report = Runtime::run(
      4,
      [](Comm& world) {
        for (int i = 0; i < 4; ++i) world.barrier();
      },
      with_faults(&plan));
  EXPECT_GE(report.ranks[1].total().model_compute_seconds, 0.5);
  EXPECT_LT(report.ranks[0].total().model_compute_seconds, 0.5);
}

TEST(FaultInjection, CorruptionPoisonsTheNextReceivedPayload) {
  FaultPlan plan;
  plan.corrupt_at(1, 1);  // armed at the barrier, fires on the allreduce
  std::vector<double> results(4, 0.0);
  Runtime::run(
      4,
      [&](Comm& world) {
        world.barrier();
        results[static_cast<std::size_t>(world.rank())] =
            world.allreduce(1.0, [](double x, double y) { return x + y; });
      },
      with_faults(&plan));
  EXPECT_TRUE(std::isnan(results[1])) << "corrupted double must be NaN";
  EXPECT_DOUBLE_EQ(results[0], 4.0);
  EXPECT_DOUBLE_EQ(results[2], 4.0);
  EXPECT_DOUBLE_EQ(results[3], 4.0);
}

TEST(FaultInjection, MismatchedCollectivesThrowStructuredErrorNotDeadlock) {
  try {
    Runtime::run(4, [](Comm& world) {
      if (world.rank() == 0) {
        world.allreduce(1, [](int x, int y) { return x + y; });
      } else {
        world.allgather(world.rank());
      }
    });
    FAIL() << "expected CollectiveMismatchError";
  } catch (const mps::CollectiveMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("allreduce"), std::string::npos) << what;
    EXPECT_NE(what.find("allgather"), std::string::npos) << what;
  }
}

TEST(FaultInjection, WatchdogConvertsAStalledRankIntoBoundedDiagnostic) {
  const auto start = std::chrono::steady_clock::now();
  try {
    Runtime::run(
        4,
        [](Comm& world) {
          if (world.rank() == 2) return;  // silently exits: never arrives
          world.barrier();
        },
        with_faults(nullptr, /*watchdog=*/0.25));
    FAIL() << "expected WatchdogTimeoutError";
  } catch (const mps::WatchdogTimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("last collective entered per rank"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 30) << "watchdog must fire within a bounded budget";
}

// ---------------------------------------------------------------------------
// The fused ordering level: a corrupted payload on any of its three
// supersteps must end in a named CheckError from that superstep's
// receive-path check, never in a wrong ordering.

TEST(FaultInjection, CorruptedOrderingLevelPayloadsFailNamedChecks) {
  // path(12) on the 2 x 2 grid, CM from root 10 (chunk 1 = [6, 12): rank 1
  // owns 6-8, rank 3 owns 9-11). Every rank's 1st collective is the first
  // ordering level (the grid, the block and the degree vector are built
  // without a collective). Its
  // level {9, 11} has one parent, so it is expanded by rank 3, whose
  // partials come home to rank 3; dealt whole to worker 0 (parent stripe
  // [0, 1)); and labeled for processor column 1 = ranks 1 and 3. A
  // corruption armed there lands on the first non-empty payload the rank
  // receives: rank 3's partials, rank 0's dealt triples, rank 1's labels.
  struct Case {
    const char* superstep;
    int rank;
    const char* check;
  };
  const Case cases[] = {
      {"expand", 3, "partial routed to non-owner"},
      {"deal", 0, "dealt bucket outside the worker's parent-label stripe"},
      {"label", 1, "label routed outside the receiver's column chunk"},
  };
  const auto a = gen::path(12);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.superstep);
    FaultPlan plan;
    plan.corrupt_at(c.rank, 1);
    try {
      Runtime::run(
          4,
          [&](Comm& world) {
            dist::ProcGrid2D grid(world);
            dist::DistSpMat mat(grid, a);
            const auto degrees = mat.degrees(grid);
            dist::DistDenseVec labels(mat.vec_dist(), grid, kNoVertex);
            rcm::dist_cm_component(mat, degrees, labels, 10, 0, grid);
          },
          with_faults(&plan));
      ADD_FAILURE() << "a corrupted " << c.superstep
                    << " payload must not complete";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(c.check), std::string::npos)
          << e.what();
    }
    ASSERT_TRUE(plan.actions().front().fired);
  }
}

TEST(FaultInjection, CorruptedStandaloneSortpermPayloadsFailNamedChecks) {
  // sortperm_bucket on the 2 x 2 grid over a full frontier of n = 16 with
  // parent bucket = vertex mod 4: every rank owns 4 vertices, one per
  // bucket, so it deals one triple to every worker (worker w's stripe is
  // bucket w), receives 4 counts, and gets one position back per owned
  // vertex. Collective 1 is the deal, 2 the count allgather and 3 the
  // scatter-back (the grid is built without one); each receives a non-empty
  // payload on every rank, so the corruption lands on that collective.
  struct Case {
    const char* collective;
    std::uint64_t ordinal;
    const char* check;
  };
  const Case cases[] = {
      {"deal", 1, "dealt bucket outside the worker's parent-label stripe"},
      {"count", 2, "worker count outside [0, n]"},
      {"scatter-back", 3, "rank routed to non-owner"},
  };
  constexpr index_t kN = 16;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.collective);
    FaultPlan plan;
    plan.corrupt_at(2, c.ordinal);
    try {
      Runtime::run(
          4,
          [&](Comm& world) {
            dist::ProcGrid2D grid(world);
            dist::VectorDist vdist(kN, grid.q());
            dist::DistDenseVec degrees(vdist, grid, 1);
            dist::DistSpVec frontier(vdist, grid);
            std::vector<dist::VecEntry> mine;
            for (index_t g = frontier.lo(); g < frontier.hi(); ++g) {
              mine.push_back(dist::VecEntry{g, g % 4});
            }
            frontier.assign(mine);
            (void)dist::sortperm_bucket(frontier, degrees, 0, 4, grid);
          },
          with_faults(&plan));
      ADD_FAILURE() << "a corrupted " << c.collective
                    << " payload must not complete";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(c.check), std::string::npos)
          << e.what();
    }
    ASSERT_TRUE(plan.actions().front().fired);
  }
}

// ---------------------------------------------------------------------------
// Recoverable pipeline: every fault kind, both CI rank counts. A recovered
// run must be bit-identical to the fault-free baseline.

struct NamedPlan {
  const char* name;
  FaultPlan plan;
};

std::vector<NamedPlan> pipeline_plans(int nranks) {
  std::vector<NamedPlan> plans;
  // The ordering stage opens with the barrier before the block build
  // (collective 1) and the seed argmin (2), then the peripheral search's
  // BFS levels (3, 4, ...).
  plans.push_back({"rank-death", FaultPlan().die_at(nranks - 1, 4)});
  // Ordinal 4 lands the poisoned word on a payload the ordering actually
  // consumes at both grid sizes, so the first attempt must fail and retry.
  plans.push_back({"payload-corruption", FaultPlan().corrupt_at(1, 4)});
  plans.push_back({"alloc-failure", FaultPlan().fail_alloc_at(0, 5)});
  plans.push_back({"stall", FaultPlan().stall_at(2, 1, 0.25)});
  return plans;
}

rcm::OrderedSolveSpec spec_of(const sparse::CsrMatrix& a,
                              const std::vector<double>& b) {
  rcm::OrderedSolveSpec spec;
  spec.matrix = &a;
  spec.b = b;
  return spec;
}

TEST(RecoverablePipeline, RecoveredRunsAreBitIdenticalToFaultFreeRuns) {
  const auto a = gen::with_laplacian_values(gen::grid2d(8, 8));
  std::vector<double> b(static_cast<std::size_t>(a.n()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + static_cast<double>(i % 7);
  }
  for (const int p : {4, 9}) {
    const auto clean = rcm::run_ordered_solve_recoverable(p, spec_of(a, b));
    for (auto& scripted : pipeline_plans(p)) {
      rcm::RecoveryOptions recovery;
      recovery.faults = &scripted.plan;
      recovery.watchdog_seconds = 20.0;
      recovery.max_attempts = 3;
      const auto run =
          rcm::run_ordered_solve_recoverable(p, spec_of(a, b), recovery);
      SCOPED_TRACE(std::string(scripted.name) + " p=" + std::to_string(p));
      EXPECT_EQ(run.result.labels, clean.result.labels);
      EXPECT_EQ(run.result.permuted_bandwidth,
                clean.result.permuted_bandwidth);
      EXPECT_EQ(run.result.cg.iterations, clean.result.cg.iterations);
      EXPECT_EQ(run.result.cg.status, clean.result.cg.status);
      ASSERT_EQ(run.result.x.size(), clean.result.x.size());
      for (std::size_t i = 0; i < run.result.x.size(); ++i) {
        EXPECT_EQ(run.result.x[i], clean.result.x[i]) << "x[" << i << "]";
      }
      // A stall completes in one attempt per stage but still bills its
      // dead time; the failing kinds must have absorbed >= 1 failure.
      if (std::string(scripted.name) == "stall") {
        EXPECT_EQ(run.runs, 3);
        EXPECT_TRUE(run.fault_log.empty());
      } else {
        EXPECT_GT(run.runs, 3) << "a failed attempt must have been retried";
        ASSERT_FALSE(run.fault_log.empty());
        EXPECT_NE(run.fault_log.front().find("attempt 1"), std::string::npos)
            << run.fault_log.front();
      }
    }
  }
}

TEST(RecoverablePipeline, RetriedAttemptsStayOnTheCostLedger) {
  const auto a = gen::with_laplacian_values(gen::grid2d(8, 8));
  std::vector<double> b(static_cast<std::size_t>(a.n()), 1.0);
  const auto clean = rcm::run_ordered_solve_recoverable(4, spec_of(a, b));
  FaultPlan plan;
  plan.die_at(3, 4);
  rcm::RecoveryOptions recovery;
  recovery.faults = &plan;
  recovery.max_attempts = 3;
  recovery.backoff_modeled_seconds = 0.125;
  const auto run =
      rcm::run_ordered_solve_recoverable(4, spec_of(a, b), recovery);
  // The merged ledger bills the abandoned attempt's partial work plus the
  // retry backoff on top of everything the clean run pays.
  EXPECT_GT(run.report.ranks[0].total().model_total(),
            clean.report.ranks[0].total().model_total());
  // Rank 0's retry charged the scripted backoff as modeled stall time.
  EXPECT_GE(run.report.ranks[0].total().model_compute_seconds,
            clean.report.ranks[0].total().model_compute_seconds + 0.125);
}

TEST(RecoverablePipeline, AttemptExhaustionRethrowsTheStructuredError) {
  const auto a = gen::with_laplacian_values(gen::grid2d(6, 6));
  std::vector<double> b(static_cast<std::size_t>(a.n()), 1.0);
  // One death per allowed attempt: the ordering stage can never finish.
  FaultPlan plan;
  plan.die_at(0, 1).die_at(0, 2);
  rcm::RecoveryOptions recovery;
  recovery.faults = &plan;
  recovery.max_attempts = 2;
  EXPECT_THROW(
      rcm::run_ordered_solve_recoverable(4, spec_of(a, b), recovery),
      mps::InjectedFault);
}

TEST(RecoverablePipeline, KnownLabelsAndRecipeSinksAreRejected) {
  // The runner orders from scratch and owns its checkpoints: a caller's
  // known labels or recipe sink would be silently ignored, so both are
  // named errors instead.
  const auto a = gen::with_laplacian_values(gen::grid2d(6, 6));
  const std::vector<double> b(static_cast<std::size_t>(a.n()), 1.0);
  const auto labels = sparse::identity_permutation(a.n());
  auto with_labels = spec_of(a, b);
  with_labels.labels = &labels;
  EXPECT_THROW(rcm::run_ordered_solve_recoverable(4, with_labels), CheckError);
  rcm::OrderingRecipe recipe;
  auto with_recipe = spec_of(a, b);
  with_recipe.recipe = &recipe;
  EXPECT_THROW(rcm::run_ordered_solve_recoverable(4, with_recipe), CheckError);
}

TEST(RecoverablePipeline, SeededRandomPlanSweepTerminatesStructured) {
  const auto a = gen::with_laplacian_values(gen::grid2d(7, 7));
  std::vector<double> b(static_cast<std::size_t>(a.n()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.5 + static_cast<double>(i % 5);
  }
  const auto clean = rcm::run_ordered_solve_recoverable(4, spec_of(a, b));
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    FaultPlan plan = FaultPlan::random(seed, 4, 60, 3);
    rcm::RecoveryOptions recovery;
    recovery.faults = &plan;
    recovery.watchdog_seconds = 20.0;
    recovery.max_attempts = 4;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    try {
      const auto run =
          rcm::run_ordered_solve_recoverable(4, spec_of(a, b), recovery);
      // Completed: then it must be the fault-free answer, bit for bit.
      EXPECT_EQ(run.result.labels, clean.result.labels);
      ASSERT_EQ(run.result.x.size(), clean.result.x.size());
      for (std::size_t i = 0; i < run.result.x.size(); ++i) {
        EXPECT_EQ(run.result.x[i], clean.result.x[i]);
      }
    } catch (const std::exception& e) {
      // Exhausted its attempts: acceptable, as long as the error is a
      // structured one that names what happened.
      EXPECT_FALSE(std::string(e.what()).empty());
    }
  }
}

}  // namespace
}  // namespace drcm
