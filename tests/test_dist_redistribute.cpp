// Tests for the distributed in-place permutation (the one-shot
// redistribute_to_row_blocks), including the full pipeline the paper's
// conclusion describes: order on the grid, permute on the grid, no gather
// anywhere.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dist/redistribute.hpp"
#include "dist_rank_matrix.hpp"
#include "mpsim/runtime.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;
namespace gen = sparse::gen;

/// Checks that this rank's one-shot block is exactly its rows of the
/// serially permuted matrix `want`: row partition, row_ptr and cols, and
/// values at the bit-pattern level.
void expect_rows_of(const OneShotRowBlocks& got, const sparse::CsrMatrix& want,
                    Comm& world) {
  const index_t n = want.n();
  const auto& block = got.block;
  ASSERT_EQ(block.n, n);
  ASSERT_EQ(block.lo, row_block_lo(n, world.size(), world.rank()));
  ASSERT_EQ(block.hi, row_block_lo(n, world.size(), world.rank() + 1));
  std::vector<nnz_t> row_ptr{0};
  std::vector<index_t> cols;
  std::vector<std::uint64_t> vals;
  for (index_t g = block.lo; g < block.hi; ++g) {
    const auto row = want.row(g);
    cols.insert(cols.end(), row.begin(), row.end());
    for (const double v : want.row_values(g)) {
      vals.push_back(std::bit_cast<std::uint64_t>(v));
    }
    row_ptr.push_back(static_cast<nnz_t>(cols.size()));
  }
  EXPECT_EQ(block.row_ptr, row_ptr);
  EXPECT_EQ(block.cols, cols);
  std::vector<std::uint64_t> got_vals;
  for (const double v : block.vals) {
    got_vals.push_back(std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(got_vals, vals) << "values are moved, never recomputed";
}

TEST(Redistribute, MatchesSerialPermutationAcrossTheRankWall) {
  // The one-shot route against the serial reference: rank r's block must be
  // exactly rows [lo, hi) of sparse::permute_symmetric(m, labels), and the
  // folded bandwidth must equal the serial bandwidth of the relabeled
  // pattern. p = 16 is the first size where the 1D row cut is strictly
  // finer than every 2D chunk cut.
  for (const int p : testing::rank_counts_wall()) {
    for (const u64 seed : {3u, 14u}) {
      // A scattered grid (mass degree ties) and an Erdős–Rényi graph
      // (irregular degrees, uneven 2D blocks).
      const auto m = gen::with_laplacian_values(
          seed == 3u ? gen::relabel_random(gen::grid2d(19, 23), seed)
                     : gen::erdos_renyi(70, 5.0, seed),
          0.02);
      const auto labels = sparse::random_permutation(m.n(), seed + 100);
      const auto want = sparse::permute_symmetric(m, labels);
      const auto want_bw =
          sparse::bandwidth_with_labels(m.strip_diagonal(), labels);
      Runtime::run(p, [&](Comm& world) {
        ProcGrid2D grid(world);
        const auto got = redistribute_to_row_blocks(m, labels, grid);
        EXPECT_EQ(got.bandwidth, want_bw) << "p=" << p << " seed=" << seed;
        expect_rows_of(got, want, world);
      });
    }
  }
}

TEST(Redistribute, FullInPlacePipeline) {
  // The paper's conclusion pipeline: compute RCM on the grid, then permute
  // the matrix on the grid — never gathering anything — and verify the
  // redistributed matrix has the RCM bandwidth.
  const auto a = gen::relabel_random(gen::grid2d(12, 12), 3);
  const auto m = gen::with_laplacian_values(a, 0.02);
  const auto expected_bw =
      sparse::bandwidth_with_labels(a, order::rcm_serial(a));
  for (const int p : testing::rank_counts_wall()) {
    Runtime::run(p, [&](Comm& world) {
      ProcGrid2D grid(world);
      const auto labels = rcm::dist_order(grid, a);
      EXPECT_EQ(redistribute_to_row_blocks(m, labels, grid).bandwidth,
                expected_bw)
          << "p=" << p;
    });
  }
}

TEST(Redistribute, IdentityIsNoop) {
  // Identity labels: every rank's row slab equals the same rows of the
  // input, global column ids ascending, values in lockstep.
  const auto m = gen::with_laplacian_values(
      gen::relabel_random(gen::grid2d(11, 13), 4), 0.02);
  for (const int p : testing::rank_counts()) {
    Runtime::run(p, [&](Comm& world) {
      ProcGrid2D grid(world);
      expect_rows_of(redistribute_to_row_blocks(
                         m, sparse::identity_permutation(m.n()), grid),
                     m, world);
    });
  }
}

TEST(Redistribute, BadLabelSizeThrows) {
  Runtime::run(1, [](Comm& world) {
    ProcGrid2D grid(world);
    const auto m = gen::with_laplacian_values(gen::path(6), 0.02);
    std::vector<index_t> short_labels{0, 1, 2};
    EXPECT_THROW(redistribute_to_row_blocks(m, short_labels, grid), CheckError);
  });
  // The same inputs through ordered_solve's known-label (cache-hit) path,
  // plus a duplicate label: identity with labels[1] = 0 would fold rows 0
  // and 1 into new row 0 and leave new row 1 empty — a different system
  // that CG still "solves". Each rank rejects it before any collective.
  const auto m = gen::with_laplacian_values(gen::grid2d(4, 4));
  const std::vector<double> b(static_cast<std::size_t>(m.n()), 1.0);
  auto duplicate = sparse::identity_permutation(m.n());
  duplicate[1] = 0;
  std::vector<index_t> short_labels{0, 1, 2};
  for (const auto* labels : {&short_labels, &duplicate}) {
    Runtime::run(4, [&](Comm& world) {
      ProcGrid2D grid(world);
      rcm::OrderedSolveSpec spec;
      spec.matrix = &m;
      spec.b = b;
      spec.labels = labels;
      EXPECT_THROW(rcm::ordered_solve(grid, spec), CheckError);
    });
  }
}

TEST(Redistribute, PatternOnlyMatrixThrows) {
  // The route feeds the solver: a pattern without values is rejected
  // (unless it has no entries at all).
  Runtime::run(1, [](Comm& world) {
    ProcGrid2D grid(world);
    const auto a = gen::path(6);
    EXPECT_THROW(redistribute_to_row_blocks(
                     a, sparse::identity_permutation(a.n()), grid),
                 CheckError);
  });
}

}  // namespace
}  // namespace drcm::dist
