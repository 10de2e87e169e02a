// Cross-validation between the two cost paths: the live runtime's charged
// costs (accumulated collective by collective during a real SPMD run) and
// the trace model's analytic projection must agree on the quantities they
// both compute, since they share the CostModel formulas.
#include <gtest/gtest.h>

#include "mpsim/runtime.hpp"
#include "rcm/rcm_driver.hpp"
#include "rcm/trace_model.hpp"
#include "sparse/generators.hpp"

namespace drcm::rcm {
namespace {

namespace gen = sparse::gen;

double charged_total(const mps::SpmdReport& report) {
  double total = 0.0;
  for (const auto phase :
       {mps::Phase::kPeripheralSpmspv, mps::Phase::kPeripheralOther,
        mps::Phase::kOrderingSpmspv, mps::Phase::kOrderingSort,
        mps::Phase::kOrderingOther}) {
    total += report.aggregate(phase).max.model_total();
  }
  return total;
}

class ModelConsistency : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Workloads, ModelConsistency, ::testing::Range(0, 4));

TEST_P(ModelConsistency, SingleRankChargedComputeTracksModel) {
  // At p = 1 there is no communication and no balance assumption, so the
  // charged compute and the projected compute measure the same underlying
  // scans. They differ by bookkeeping constants (the live path charges the
  // SET/SELECT refresh of every frontier pass, SPA sort terms and setup
  // scans individually; the model folds them into per-level constants), so
  // agreement within a factor of 4 — not equality — is the contract.
  const int which = GetParam();
  const auto a = which == 0   ? gen::grid2d(20, 20)
                 : which == 1 ? gen::erdos_renyi(300, 6.0, 5)
                 : which == 2 ? gen::relabel_random(gen::grid3d(5, 5, 12), 2)
                              : gen::kkt_system(gen::grid2d(10, 10), 50);
  const auto run = run_dist_order(1, a);
  const double charged = charged_total(run.report);
  const auto trace = ExecutionTrace::collect(a);
  const double projected = project_cost(trace, 1, 1).total();
  EXPECT_GT(charged, 0.0);
  EXPECT_GT(projected, 0.0);
  EXPECT_LT(projected, charged * 4.0) << "which=" << which;
  EXPECT_GT(projected, charged / 4.0) << "which=" << which;
}

TEST_P(ModelConsistency, SortShareGrowsIdenticallyInBothViews) {
  // Both views must agree on the qualitative Figure-4 claim: the sorting
  // share of total cost is larger at p=4 than at p=1.
  const int which = GetParam();
  const auto a = which % 2 == 0 ? gen::relabel_random(gen::grid2d(16, 16), 3)
                                : gen::grid3d(4, 4, 10);
  const auto sort_share = [&](int p) {
    const auto run = run_dist_order(p, a);
    const double sort =
        run.report.aggregate(mps::Phase::kOrderingSort).max.model_total();
    return sort / charged_total(run.report);
  };
  EXPECT_GT(sort_share(4), sort_share(1) * 0.99);
}

TEST_P(ModelConsistency, HybridChargedComputeTracksModel) {
  // The hybrid configuration is priced by the trace model only: the runtime
  // runs one thread per rank. At P = 1 with 6 threads the projection is
  // the flat projection with every compute term divided by 6 (no
  // communication either way), so it tracks the flat run's charged cost
  // divided by 6 inside the same factor-4 bookkeeping band as
  // SingleRankChargedComputeTracksModel.
  const int which = GetParam();
  const auto a = which == 0   ? gen::grid2d(20, 20)
                 : which == 1 ? gen::erdos_renyi(300, 6.0, 5)
                 : which == 2 ? gen::relabel_random(gen::grid3d(5, 5, 12), 2)
                              : gen::kkt_system(gen::grid2d(10, 10), 50);
  const auto run = run_dist_order(1, a);
  const double charged = charged_total(run.report) / 6.0;
  const auto trace = ExecutionTrace::collect(a);
  const auto flat = project_cost(trace, 1, 1);
  const auto hybrid = project_cost(trace, 6, 6);
  EXPECT_NEAR(hybrid.total(), flat.total() / 6.0, flat.total() * 1e-12);
  const double projected = hybrid.total();
  EXPECT_GT(charged, 0.0);
  EXPECT_GT(projected, 0.0);
  EXPECT_LT(projected, charged * 4.0) << "which=" << which;
  EXPECT_GT(projected, charged / 4.0) << "which=" << which;
}

TEST(ModelConsistency, HybridDividesComputeAndKeepsCommunication) {
  // The paper's hybrid pricing (Fig. 6): P processes of 6 threads each see
  // the same collectives as P flat processes — the same comm terms and
  // crossings, communication staying on one thread per process — and
  // spread the same compute over 6x the cores.
  const auto a = gen::relabel_random(gen::grid2d(16, 16), 3);
  const auto trace = ExecutionTrace::collect(a);
  for (const int p : {1, 4, 9, 16}) {
    const auto flat = project_cost(trace, p, 1);
    const auto hybrid = project_cost(trace, 6 * p, 6);
    const PhaseTime CostBreakdown::*phases[] = {
        &CostBreakdown::peripheral_spmspv, &CostBreakdown::peripheral_other,
        &CostBreakdown::ordering_spmspv, &CostBreakdown::ordering_sort,
        &CostBreakdown::ordering_other};
    for (const auto phase : phases) {
      const auto& f = flat.*phase;
      const auto& h = hybrid.*phase;
      EXPECT_EQ(h.comm, f.comm) << "p=" << p;
      EXPECT_EQ(h.crossings, f.crossings) << "p=" << p;
      EXPECT_NEAR(h.compute, f.compute / 6.0, f.compute * 1e-12)
          << "p=" << p;
    }
    EXPECT_GT(flat.total(), hybrid.total()) << "p=" << p;
  }
}

TEST(ModelConsistency, MessagesCountedOnlyWhenCommunicating) {
  const auto a = gen::grid2d(10, 10);
  const auto p1 = run_dist_order(1, a);
  const auto p4 = run_dist_order(4, a);
  mps::PhaseTotals t1, t4;
  for (const auto& r : p1.report.ranks) t1 += r.total();
  for (const auto& r : p4.report.ranks) t4 += r.total();
  EXPECT_EQ(t1.words, 0u);  // single rank moves no words
  EXPECT_GT(t4.words, 0u);
  EXPECT_GT(t4.messages, t1.messages);
}

TEST(ModelConsistency, PhaseScopeRestoresPreviousPhase) {
  mps::Runtime::run(1, [](mps::Comm& comm) {
    EXPECT_EQ(comm.phase(), mps::Phase::kOther);
    {
      mps::PhaseScope outer(comm, mps::Phase::kSolver);
      EXPECT_EQ(comm.phase(), mps::Phase::kSolver);
    }
    EXPECT_EQ(comm.phase(), mps::Phase::kOther);
  });
}

}  // namespace
}  // namespace drcm::rcm
