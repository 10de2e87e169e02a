// Oracle wall for the solve stage's local builders:
//   * the receive assembly of redistribute_to_row_blocks (a counting pass
//     by row, then a column sort per row), checked against a test-local
//     copy of the wholesale (row, col) sort it replaced, fed the same
//     received triples in a shuffled arrival order;
//   * its receive-slot map: the value-only route of a plan hit delivers
//     value k exactly where the triple route put arrival k;
//   * the ILU(0) factor of the solve plan (the symbolic pattern over the
//     split system's local half, then the numeric position-map factor),
//     checked against a test-local copy of the binary-search ILU(0) over
//     the COO-rebuilt diagonal block it replaced.
// All comparisons are element for element (values bit for bit), over
// random SPD patterns, long rows, rows with no stored diagonal (the unit
// placeholder), vanishing pivots (the shift, with shifted_pivots) and
// ranks that own no rows. Honors DRCM_TEST_RANKS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "dist/redistribute.hpp"
#include "dist_rank_matrix.hpp"
#include "mpsim/runtime.hpp"
#include "solver/dist_cg.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"

namespace drcm::dist {
namespace {

using mps::Comm;
using mps::Runtime;
using testing::rank_counts_wall;
namespace gen = sparse::gen;

// ---- Oracles: the replaced code, kept here only to compare against ----

/// The former receive tail: one wholesale (row, col) sort of the received
/// triples, then the CSR slab.
RowBlockCsr sort_based_row_block(std::vector<MatEntryV> recv, index_t n,
                                 int p, int r) {
  RowBlockCsr out;
  out.n = n;
  out.lo = row_block_lo(n, p, r);
  out.hi = row_block_lo(n, p, r + 1);
  std::sort(recv.begin(), recv.end(), [](const MatEntryV& x, const MatEntryV& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  });
  const auto nloc = static_cast<std::size_t>(out.local_rows());
  out.row_ptr.assign(nloc + 1, 0);
  out.cols.resize(recv.size());
  out.vals.resize(recv.size());
  for (std::size_t k = 0; k < recv.size(); ++k) {
    ++out.row_ptr[static_cast<std::size_t>(recv[k].row - out.lo) + 1];
    out.cols[k] = recv[k].col;
    out.vals[k] = recv[k].val;
  }
  for (std::size_t i = 0; i < nloc; ++i) out.row_ptr[i + 1] += out.row_ptr[i];
  return out;
}

struct OracleFactor {
  std::vector<nnz_t> row_ptr;
  std::vector<index_t> cols;
  std::vector<double> vals;
  std::vector<nnz_t> diag_pos;
  int shifted_pivots = 0;
};

/// The former factor route: the row block's local-column entries through a
/// CooBuilder round trip, then ILU(0) with a binary search of row i per
/// update.
OracleFactor binary_search_ilu0(const RowBlockCsr& a) {
  const index_t m = a.local_rows();
  sparse::CooBuilder coo(m);
  for (index_t g = a.lo; g < a.hi; ++g) {
    const auto cols = a.row(g);
    const auto vals = a.row_values(g);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] >= a.lo && cols[k] < a.hi) {
        coo.add(g - a.lo, cols[k] - a.lo, vals[k]);
      }
    }
  }
  const auto blk_csr = coo.to_csr(true);

  OracleFactor f;
  f.row_ptr.assign(static_cast<std::size_t>(m) + 1, 0);
  f.diag_pos.assign(static_cast<std::size_t>(m), -1);
  for (index_t i = 0; i < m; ++i) {
    const auto cols = blk_csr.row(i);
    const auto vals = blk_csr.row_values(i);
    bool saw_diag = false;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t j = cols[k];
      if (!saw_diag && j > i) {
        f.diag_pos[static_cast<std::size_t>(i)] = static_cast<nnz_t>(f.cols.size());
        f.cols.push_back(i);
        f.vals.push_back(1.0);
        saw_diag = true;
      }
      if (j == i) {
        f.diag_pos[static_cast<std::size_t>(i)] = static_cast<nnz_t>(f.cols.size());
        saw_diag = true;
      }
      f.cols.push_back(j);
      f.vals.push_back(vals[k]);
    }
    if (!saw_diag) {
      f.diag_pos[static_cast<std::size_t>(i)] = static_cast<nnz_t>(f.cols.size());
      f.cols.push_back(i);
      f.vals.push_back(1.0);
    }
    f.row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<nnz_t>(f.cols.size());
  }
  const auto find_in_row = [&](index_t row, index_t col) -> nnz_t {
    const auto* base = f.cols.data();
    const auto* first = base + f.row_ptr[static_cast<std::size_t>(row)];
    const auto* last = base + f.row_ptr[static_cast<std::size_t>(row) + 1];
    const auto* it = std::lower_bound(first, last, col);
    return it != last && *it == col ? static_cast<nnz_t>(it - base) : -1;
  };
  for (index_t i = 0; i < m; ++i) {
    for (nnz_t kk = f.row_ptr[static_cast<std::size_t>(i)];
         kk < f.row_ptr[static_cast<std::size_t>(i) + 1]; ++kk) {
      const index_t k = f.cols[static_cast<std::size_t>(kk)];
      if (k >= i) break;
      const double pivot =
          f.vals[static_cast<std::size_t>(f.diag_pos[static_cast<std::size_t>(k)])];
      const double lik = f.vals[static_cast<std::size_t>(kk)] / pivot;
      f.vals[static_cast<std::size_t>(kk)] = lik;
      for (nnz_t kj = f.diag_pos[static_cast<std::size_t>(k)] + 1;
           kj < f.row_ptr[static_cast<std::size_t>(k) + 1]; ++kj) {
        const nnz_t ij = find_in_row(i, f.cols[static_cast<std::size_t>(kj)]);
        if (ij >= 0) {
          f.vals[static_cast<std::size_t>(ij)] -=
              lik * f.vals[static_cast<std::size_t>(kj)];
        }
      }
    }
    double& diag =
        f.vals[static_cast<std::size_t>(f.diag_pos[static_cast<std::size_t>(i)])];
    if (std::abs(diag) < 1e-12) {
      diag = diag < 0 ? -1e-12 : 1e-12;
      ++f.shifted_pivots;
    }
  }
  return f;
}

/// The triples rank r receives under `labels`: every relabeled entry whose
/// new row it owns, in a seeded arrival order (the wire order is the
/// senders' business; the assembly must not depend on it).
std::vector<MatEntryV> received_triples(const sparse::CsrMatrix& a,
                                        const std::vector<index_t>& labels,
                                        int p, int r, u64 seed) {
  const index_t lo = row_block_lo(a.n(), p, r);
  const index_t hi = row_block_lo(a.n(), p, r + 1);
  std::vector<MatEntryV> out;
  for (index_t i = 0; i < a.n(); ++i) {
    const index_t nr = labels[static_cast<std::size_t>(i)];
    if (nr < lo || nr >= hi) continue;
    const auto cols = a.row(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out.push_back(MatEntryV{nr, labels[static_cast<std::size_t>(cols[k])],
                              vals[k]});
    }
  }
  Rng rng(seed);
  rng.shuffle(out.begin(), out.end());
  return out;
}

/// Redistributes `a` under `labels` on p ranks and checks each rank's
/// block against the sort-based oracle and its factor against the
/// binary-search oracle. Returns the shifted pivots summed over ranks.
int check_against_oracles(const sparse::CsrMatrix& a,
                          const std::vector<index_t>& labels,
                          const std::string& what, int p) {
  std::vector<int> shifted(static_cast<std::size_t>(p), 0);
  Runtime::run(
      p,
      [&](Comm& world) {
        ProcGrid2D grid(world);
        const auto got = redistribute_to_row_blocks(a, labels, grid).block;
        const int r = world.rank();
        const auto want = sort_based_row_block(
            received_triples(a, labels, p, r, 0x5eed + static_cast<u64>(r)),
            a.n(), p, r);
        const auto where = what + " p=" + std::to_string(p) +
                           " rank=" + std::to_string(r);
        EXPECT_EQ(got.n, want.n) << where;
        EXPECT_EQ(got.lo, want.lo) << where;
        EXPECT_EQ(got.hi, want.hi) << where;
        EXPECT_EQ(got.row_ptr, want.row_ptr) << where;
        EXPECT_EQ(got.cols, want.cols) << where;
        EXPECT_EQ(got.vals, want.vals) << where;

        // The slot map is a permutation of the block's slots, and the
        // value-only route lands each value where its triple landed.
        const auto routed = redistribute_to_row_blocks(a, labels, grid);
        std::vector<nnz_t> seen(routed.origin);
        std::sort(seen.begin(), seen.end());
        for (std::size_t k = 0; k < seen.size(); ++k) {
          ASSERT_EQ(seen[k], static_cast<nnz_t>(k)) << where;
        }
        const auto values = route_row_block_values(a, labels, grid);
        ASSERT_EQ(values.size(), routed.origin.size()) << where;
        for (std::size_t s = 0; s < values.size(); ++s) {
          EXPECT_EQ(values[static_cast<std::size_t>(routed.origin[s])],
                    got.vals[s])
              << where << " block slot " << s;
        }

        // The plan's ILU(0) half over the placed values.
        const auto plan =
            solver::build_solve_plan(world, routed.block, routed.origin);
        std::vector<double> split(values.size());
        for (std::size_t k = 0; k < values.size(); ++k) {
          split[static_cast<std::size_t>(plan.value_slot[k])] = values[k];
        }
        int pivots = 0;
        const auto factor = solver::ilu0_factor(plan.ilu, split, &pivots);
        const auto oracle = binary_search_ilu0(got);
        EXPECT_EQ(pivots, oracle.shifted_pivots) << where;
        shifted[static_cast<std::size_t>(r)] = pivots;
        EXPECT_EQ(plan.ilu.rows(), got.local_rows()) << where;
        EXPECT_EQ(plan.ilu.row_ptr, oracle.row_ptr) << where;
        EXPECT_EQ(plan.ilu.cols, oracle.cols) << where;
        EXPECT_EQ(factor, oracle.vals) << where;
        EXPECT_EQ(plan.ilu.diag_pos, oracle.diag_pos) << where;
      });
  int shifted_total = 0;
  for (const int s : shifted) shifted_total += s;
  return shifted_total;
}

TEST(AssemblyOracle, RandomSpdPatternsMatchSortAndBinarySearch) {
  for (u64 seed = 1; seed <= 4; ++seed) {
    const std::vector<std::pair<std::string, sparse::CsrMatrix>> patterns = {
        {"erdos_renyi", gen::erdos_renyi(180, 6.0, seed)},
        {"grid3d_27pt", gen::relabel_random(
                            gen::grid3d(5, 5, 8, gen::Stencil3d::k27), seed)},
        // Long rows for the per-row column sort: up to ~80 entries.
        {"random_banded", gen::random_banded(150, 40, 0.9, seed)},
    };
    for (const auto& [name, pattern] : patterns) {
      const auto a = gen::with_laplacian_values(pattern, 0.02);
      const auto labels = sparse::random_permutation(a.n(), seed * 7 + 1);
      for (const int p : rank_counts_wall()) {
        const int shifted = check_against_oracles(
            a, labels, name + " seed=" + std::to_string(seed), p);
        EXPECT_EQ(shifted, 0) << "an SPD Laplacian needs no pivot shift";
      }
    }
  }
}

TEST(AssemblyOracle, StarHubRowMatches) {
  // One row holding every column: the longest row the assembly can see.
  const auto a = gen::with_laplacian_values(gen::star(120), 0.02);
  const auto labels = sparse::random_permutation(a.n(), 11);
  for (const int p : rank_counts_wall()) {
    check_against_oracles(a, labels, "star", p);
  }
}

TEST(AssemblyOracle, MissingDiagonalTakesThePlaceholder) {
  // Off-diagonal couplings everywhere, a stored diagonal on every third
  // row only: the factor inserts a unit placeholder on the others.
  const auto pattern = gen::erdos_renyi(140, 5.0, 3);
  sparse::CooBuilder coo(pattern.n());
  for (index_t i = 0; i < pattern.n(); ++i) {
    if (i % 3 == 0) coo.add(i, i, 8.0);
    for (const index_t j : pattern.row(i)) coo.add(i, j, -0.5);
  }
  const auto a = coo.to_csr(true);
  const auto labels = sparse::random_permutation(a.n(), 5);
  for (const int p : rank_counts_wall()) {
    check_against_oracles(a, labels, "no-diagonal rows", p);
  }
}

TEST(AssemblyOracle, VanishingPivotIsShiftedAndCounted) {
  // Disjoint all-ones 2x2 blocks under the identity labels: the second
  // pivot of every pair whose two rows share a rank is 1 - 1 * 1 = 0, and
  // row 2k+1 of a pair split across ranks stays 1. A stored zero diagonal
  // on an isolated row vanishes outright.
  const index_t pairs = 60;
  sparse::CooBuilder coo(2 * pairs + 1);
  for (index_t k = 0; k < pairs; ++k) {
    for (const index_t i : {2 * k, 2 * k + 1}) {
      for (const index_t j : {2 * k, 2 * k + 1}) coo.add(i, j, 1.0);
    }
  }
  coo.add(2 * pairs, 2 * pairs, 0.0);
  const auto a = coo.to_csr(true);
  const auto labels = sparse::identity_permutation(a.n());
  for (const int p : rank_counts_wall()) {
    int split_pairs = 0;
    for (index_t k = 0; k < pairs; ++k) {
      split_pairs += row_block_owner(a.n(), p, 2 * k) !=
                     row_block_owner(a.n(), p, 2 * k + 1);
    }
    const int shifted = check_against_oracles(a, labels, "vanishing pivot", p);
    EXPECT_EQ(shifted, static_cast<int>(pairs) - split_pairs + 1)
        << "p=" << p << ": one shift per unsplit pair plus the zero diagonal";
  }
}

TEST(AssemblyOracle, RanksOwningNoRowsMatch) {
  // n < p leaves some ranks an empty row block: an empty slab, no factor.
  for (const index_t n : {1, 2, 3, 7}) {
    const auto a = gen::with_laplacian_values(gen::path(n), 0.02);
    const auto labels = sparse::random_permutation(n, static_cast<u64>(n));
    for (const int p : rank_counts_wall()) {
      check_against_oracles(a, labels, "n=" + std::to_string(n), p);
    }
  }
}

}  // namespace
}  // namespace drcm::dist
