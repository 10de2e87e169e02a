// Degenerate graphs through the full ordered_solve pipeline: the shapes
// that stress every boundary condition at once — empty worlds, single
// vertices, multiple components, maximal-degree hubs, and graphs with no
// edges at all. Each must come out the other end with a valid permutation
// and a solution that actually solves the system, at every cell of the
// {1,4,9} simulated rank matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "dist_rank_matrix.hpp"
#include "rcm/rcm_driver.hpp"
#include "solver/spmv.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"

namespace drcm::rcm {
namespace {

namespace gen = sparse::gen;

std::vector<double> mild_rhs(index_t n) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 7);
  }
  return b;
}

double relative_residual(const sparse::CsrMatrix& a,
                         std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> ax(b.size(), 0.0);
  solver::spmv(a, x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double r = b[i] - ax[i];
    rr += r * r;
    bb += b[i] * b[i];
  }
  return bb == 0.0 ? std::sqrt(rr) : std::sqrt(rr / bb);
}

/// The shared exercise: run the pipeline, demand a permutation, a converged
/// solve, and a solution that satisfies the ORIGINAL system.
void expect_solves(const sparse::CsrMatrix& m, int p) {
  const auto b = mild_rhs(m.n());
  const auto run = run_ordered_solve_recoverable(p, {.matrix = &m, .b = b});
  EXPECT_TRUE(sparse::is_valid_permutation(run.result.labels))
      << "p=" << p << " n=" << m.n();
  ASSERT_TRUE(run.result.cg.converged) << "p=" << p << " n=" << m.n();
  ASSERT_EQ(run.result.x.size(), b.size());
  EXPECT_LE(relative_residual(m, b, run.result.x), 1e-6)
      << "p=" << p << " n=" << m.n();
}

TEST(DegeneratePipeline, EmptyMatrixYieldsEmptyEverything) {
  const sparse::CsrMatrix m = sparse::CooBuilder(0).to_csr(true);
  for (const int p : dist::testing::rank_counts()) {
    const auto run = run_ordered_solve_recoverable(p, {.matrix = &m});
    EXPECT_TRUE(run.result.labels.empty());
    EXPECT_TRUE(run.result.x.empty());
    EXPECT_TRUE(run.result.cg.converged);
    EXPECT_EQ(run.result.permuted_bandwidth, 0);
  }
}

TEST(DegeneratePipeline, SingletonSolvesItsOneEquation) {
  sparse::CooBuilder coo(1);
  coo.add(0, 0, 2.0);
  const auto m = coo.to_csr(true);
  const std::vector<double> b{3.0};
  for (const int p : dist::testing::rank_counts()) {
    const auto run = run_ordered_solve_recoverable(p, {.matrix = &m, .b = b});
    ASSERT_EQ(run.result.labels.size(), 1u);
    EXPECT_EQ(run.result.labels[0], 0);
    ASSERT_TRUE(run.result.cg.converged);
    ASSERT_EQ(run.result.x.size(), 1u);
    EXPECT_NEAR(run.result.x[0], 1.5, 1e-12);
  }
}

TEST(DegeneratePipeline, DisconnectedComponentsAreOrderedAndSolved) {
  // Three components of very different shapes; the ordering loop must seed
  // each one and the solve must converge across all of them.
  const auto pattern = gen::disjoint_union(
      {gen::path(7), gen::grid2d(3, 3), gen::star(5)});
  const auto m = gen::with_laplacian_values(pattern, 0.05);
  for (const int p : dist::testing::rank_counts()) expect_solves(m, p);
}

TEST(DegeneratePipeline, StarHubSurvivesTheLevelKernels) {
  // One vertex of degree n-1: the worst skew the SORTPERM worker stripes
  // and the SpMSpV accumulators see.
  const auto m = gen::with_laplacian_values(gen::star(17), 0.05);
  for (const int p : dist::testing::rank_counts()) expect_solves(m, p);
}

TEST(DegeneratePipeline, AllIsolatedVerticesAreADiagonalSolve) {
  // No edges anywhere: every vertex is its own component, the level
  // kernels see empty frontiers, and the matrix is pure diagonal.
  const auto m = gen::with_laplacian_values(gen::empty_graph(12), 0.05);
  for (const int p : dist::testing::rank_counts()) expect_solves(m, p);
}

}  // namespace
}  // namespace drcm::rcm
