// Oracle wall for the 2D block build: DistSpMat builds block (r, c) in one
// pass over the rows of column chunk c (symmetric pattern: column g is row
// g cut to row chunk r) and records its owned degrees on the way. Checked
// on every rank against a test-local copy of the two-pass transpose of the
// row slab it replaced (column spans and resident_elements), and the
// degree vector against the CSR row lengths, with zero barrier crossings
// for the block and its degrees. Inputs cover a relabeled grid, a KKT
// system, Erdos-Renyi, a path, isolated vertices and n < p (empty chunks
// and sub-chunks). Honors DRCM_TEST_RANKS.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "dist_rank_matrix.hpp"
#include "mpsim/runtime.hpp"
#include "sparse/generators.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;
using testing::rank_counts_wall;
namespace gen = sparse::gen;

// ---- Oracle: the replaced build, kept here only to compare against ----

struct OracleBlock {
  std::vector<nnz_t> col_ptr;
  std::vector<index_t> rows;
};

/// The former build: two passes over my ROW slab (count per local column,
/// then fill), each row cut to my column chunk by a binary search.
OracleBlock two_pass_transpose(const sparse::CsrMatrix& a, index_t row_lo,
                               index_t row_hi, index_t col_lo,
                               index_t col_hi) {
  const auto ncols = static_cast<std::size_t>(col_hi - col_lo);
  std::vector<nnz_t> count(ncols, 0);
  for (index_t gr = row_lo; gr < row_hi; ++gr) {
    const auto cols = a.row(gr);
    const auto first = std::lower_bound(cols.begin(), cols.end(), col_lo);
    for (auto it = first; it != cols.end() && *it < col_hi; ++it) {
      ++count[static_cast<std::size_t>(*it - col_lo)];
    }
  }
  OracleBlock out;
  out.col_ptr.assign(ncols + 1, 0);
  for (std::size_t c = 0; c < ncols; ++c) {
    out.col_ptr[c + 1] = out.col_ptr[c] + count[c];
  }
  out.rows.resize(static_cast<std::size_t>(out.col_ptr[ncols]));
  std::vector<nnz_t> next(out.col_ptr.begin(), out.col_ptr.end() - 1);
  for (index_t gr = row_lo; gr < row_hi; ++gr) {
    const auto cols = a.row(gr);
    const auto first = std::lower_bound(cols.begin(), cols.end(), col_lo);
    for (auto it = first; it != cols.end() && *it < col_hi; ++it) {
      const auto lc = static_cast<std::size_t>(*it - col_lo);
      out.rows[static_cast<std::size_t>(next[lc]++)] = gr - row_lo;
    }
  }
  return out;
}

struct Input {
  std::string name;
  sparse::CsrMatrix a;
};

std::vector<Input> inputs() {
  std::vector<Input> out;
  out.push_back({"grid", gen::relabel_random(gen::grid2d(17, 13), 5)});
  out.push_back({"kkt", gen::relabel_random(
                            gen::kkt_system(gen::grid2d(9, 8), 20), 6)});
  out.push_back({"er", gen::erdos_renyi(150, 4.0, 7)});
  out.push_back({"path", gen::path(41)});
  out.push_back({"empty", gen::empty_graph(23)});
  out.push_back({"n<p", gen::path(3)});
  return out;
}

void expect_block_matches_oracle(const sparse::CsrMatrix& a, int p) {
  Runtime::run(p, [&](Comm& world) {
    ProcGrid2D grid(world);
    const auto before = world.stats().total().barrier_crossings;
    const DistSpMat mat(grid, a);
    const auto degrees = mat.degrees(grid);
    EXPECT_EQ(world.stats().total().barrier_crossings, before)
        << "block build and degrees must be local";

    const auto oracle = two_pass_transpose(a, mat.row_lo(), mat.row_hi(),
                                           mat.col_lo(), mat.col_hi());
    ASSERT_EQ(mat.local_cols() + 1,
              static_cast<index_t>(oracle.col_ptr.size()));
    for (index_t lc = 0; lc < mat.local_cols(); ++lc) {
      const auto col = mat.column(lc);
      const auto b = static_cast<std::size_t>(
          oracle.col_ptr[static_cast<std::size_t>(lc)]);
      const auto e = static_cast<std::size_t>(
          oracle.col_ptr[static_cast<std::size_t>(lc) + 1]);
      ASSERT_TRUE(std::equal(col.begin(), col.end(), oracle.rows.begin() + b,
                             oracle.rows.begin() + e))
          << "rank " << world.rank() << " local column " << lc;
    }
    EXPECT_EQ(mat.resident_elements(),
              oracle.col_ptr.size() + oracle.rows.size());
    EXPECT_EQ(mat.local_nnz(), static_cast<nnz_t>(oracle.rows.size()));

    const auto [lo, hi] =
        mat.vec_dist().owned_range(grid.row(), grid.col());
    ASSERT_EQ(degrees.lo(), lo);
    ASSERT_EQ(degrees.hi(), hi);
    for (index_t g = lo; g < hi; ++g) {
      EXPECT_EQ(degrees.get(g), a.degree(g)) << "vertex " << g;
    }
  });
}

TEST(BlockBuildOracle, MatchesTheTwoPassTransposeOnEveryRank) {
  for (const auto& in : inputs()) {
    for (const int p : rank_counts_wall()) {
      SCOPED_TRACE(in.name + " p=" + std::to_string(p));
      expect_block_matches_oracle(in.a, p);
    }
  }
}

}  // namespace
}  // namespace drcm::dist
