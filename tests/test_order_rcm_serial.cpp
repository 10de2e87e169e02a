// Tests for the sequential CM/RCM reference implementations.
#include <gtest/gtest.h>

#include "order/rcm_serial.hpp"
#include "sparse/generators.hpp"
#include "sparse/graph_algo.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

namespace drcm::order {
namespace {

using sparse::CsrMatrix;
namespace gen = sparse::gen;

TEST(RcmSerial, PathIsAlreadyOptimallyOrdered) {
  // RCM of a path relabels it end-to-end: the identity (or reversal) of the
  // natural order, with bandwidth 1.
  for (index_t n : {2, 3, 4, 17}) {
    const auto a = gen::path(n);
    const auto labels = rcm_serial(a);
    EXPECT_TRUE(sparse::is_valid_permutation(labels));
    EXPECT_EQ(sparse::bandwidth_with_labels(a, labels), 1) << "n=" << n;
    EXPECT_EQ(labels, sparse::identity_permutation(n)) << "n=" << n;
  }
}

TEST(RcmSerial, HandWorkedCycle4) {
  // Seed = vertex 0 (min degree, min id); George-Liu moves to vertex 2;
  // CM from 2 labels [3,1,0,2]; reversal gives [0,2,3,1].
  const auto a = gen::cycle(4);
  const auto cm = cm_serial(a);
  EXPECT_EQ(cm, (std::vector<index_t>{3, 1, 0, 2}));
  const auto rcm = rcm_serial(a);
  EXPECT_EQ(rcm, (std::vector<index_t>{0, 2, 3, 1}));
}

TEST(RcmSerial, StarCenterLabeledLast) {
  // CM from any leaf: leaf 0, center 1, rest by id; RCM flips so the center
  // gets label n-2.
  const auto a = gen::star(6);
  const auto rcm = rcm_serial(a);
  EXPECT_TRUE(sparse::is_valid_permutation(rcm));
  EXPECT_EQ(rcm[0], 6 - 2);  // center
}

TEST(RcmSerial, SingleVertexAndEmpty) {
  EXPECT_EQ(rcm_serial(gen::empty_graph(1)), (std::vector<index_t>{0}));
  EXPECT_TRUE(rcm_serial(gen::empty_graph(0)).empty());
  const auto iso = rcm_serial(gen::empty_graph(4));
  EXPECT_TRUE(sparse::is_valid_permutation(iso));
}

TEST(RcmSerial, DisconnectedComponentsAllLabeled) {
  const auto a = gen::disjoint_union({gen::path(5), gen::cycle(6), gen::star(4)});
  OrderingStats stats;
  const auto labels = rcm_serial(a, &stats);
  EXPECT_TRUE(sparse::is_valid_permutation(labels));
  EXPECT_EQ(stats.components, 3);
  EXPECT_GE(stats.peripheral_bfs_sweeps, 3);
}

/// The per-component rescan ComponentSeeds replaced, kept here only to
/// compare against: the unlabeled vertex of minimum degree, ties to the
/// smallest id, found by a pass over all n vertices.
index_t scan_seed(const CsrMatrix& a, const std::vector<index_t>& labels) {
  index_t best = kNoVertex;
  for (index_t v = 0; v < a.n(); ++v) {
    if (labels[static_cast<std::size_t>(v)] != kNoVertex) continue;
    if (best == kNoVertex || a.degree(v) < a.degree(best)) best = v;
  }
  return best;
}

TEST(RcmSerial, SeedCursorMatchesTheFullScan) {
  // Labeling removes whole components, as every ordering arm does; after
  // each one the cursor must name the seed the full scan names.
  const CsrMatrix graphs[] = {
      gen::empty_graph(50),
      gen::disjoint_union(std::vector<CsrMatrix>(400, gen::path(10))),
      gen::relabel_random(
          gen::disjoint_union({gen::grid2d(9, 8), gen::empty_graph(25)}), 4),
      gen::relabel_random(gen::erdos_renyi(300, 1.2, 11), 12),
  };
  for (const auto& a : graphs) {
    std::vector<index_t> labels(static_cast<std::size_t>(a.n()), kNoVertex);
    ComponentSeeds seeds(a);
    index_t next_label = 0;
    int components = 0;
    while (true) {
      const index_t want = scan_seed(a, labels);
      ASSERT_EQ(seeds.next(labels), want)
          << "n=" << a.n() << " component " << components;
      if (want == kNoVertex) break;
      const auto reach = sparse::bfs(a, want);
      for (index_t v = 0; v < a.n(); ++v) {
        if (reach.level[static_cast<std::size_t>(v)] != kNoVertex) {
          labels[static_cast<std::size_t>(v)] = next_label++;
        }
      }
      ++components;
    }
    EXPECT_EQ(next_label, a.n());
    EXPECT_EQ(components, sparse::connected_components(a).count);
  }
}

TEST(RcmSerial, ReducesBandwidthOnShuffledGrid) {
  const auto natural = gen::grid2d(20, 20);
  const auto a = gen::relabel_random(natural, 13);
  const auto labels = rcm_serial(a);
  EXPECT_TRUE(sparse::is_valid_permutation(labels));
  const auto bw_before = sparse::bandwidth(a);
  const auto bw_after = sparse::bandwidth_with_labels(a, labels);
  EXPECT_LT(bw_after, bw_before / 4);  // orders of magnitude in practice
  EXPECT_LE(bw_after, 40);             // near the grid cross-section (20)
}

TEST(RcmSerial, BandwidthInsensitiveToInputLabeling) {
  // Quality should be roughly the same no matter how the input is labeled.
  const auto base = gen::grid2d_9pt(15, 12);
  const auto l1 = rcm_serial(base);
  const auto l2 = rcm_serial(gen::relabel_random(base, 3));
  const auto bw1 = sparse::bandwidth_with_labels(base, l1);
  const auto bw2 = sparse::bandwidth_with_labels(gen::relabel_random(base, 3), l2);
  EXPECT_LE(bw2, 2 * bw1 + 2);
  EXPECT_LE(bw1, 2 * bw2 + 2);
}

TEST(RcmSerial, ReverseLabelsValidatesInput) {
  std::vector<index_t> incomplete{0, kNoVertex};
  EXPECT_THROW(reverse_labels(incomplete), CheckError);
}

TEST(RcmSerial, NosortIsValidButNoBetter) {
  const auto a = gen::relabel_random(gen::grid2d(16, 16), 5);
  const auto plain = rcm_serial(a);
  const auto nosort = rcm_nosort(a);
  EXPECT_TRUE(sparse::is_valid_permutation(nosort));
  // The degree key can only help (this is a heuristic, but it holds on
  // mesh-like inputs; the ablation bench quantifies it).
  EXPECT_LE(sparse::bandwidth_with_labels(a, plain),
            sparse::bandwidth_with_labels(a, nosort) + 2);
}

// --- property sweeps --------------------------------------------------------

struct WorkloadCase {
  const char* name;
  CsrMatrix matrix;
};

std::vector<WorkloadCase> property_workloads() {
  std::vector<WorkloadCase> w;
  w.push_back({"path40", gen::path(40)});
  w.push_back({"cycle23", gen::cycle(23)});
  w.push_back({"star17", gen::star(17)});
  w.push_back({"complete9", gen::complete(9)});
  w.push_back({"caterpillar", gen::caterpillar(9, 3)});
  w.push_back({"grid2d", gen::grid2d(9, 13)});
  w.push_back({"grid2d9pt", gen::grid2d_9pt(8, 8)});
  w.push_back({"grid3d", gen::grid3d(5, 4, 6)});
  w.push_back({"grid3d27", gen::grid3d(4, 4, 4, gen::Stencil3d::k27)});
  w.push_back({"er_sparse", gen::erdos_renyi(150, 3.0, 7)});
  w.push_back({"er_dense", gen::erdos_renyi(80, 12.0, 8)});
  w.push_back({"rmat", gen::rmat(7, 6, 9)});
  w.push_back({"banded", gen::random_banded(120, 6, 0.4, 10)});
  w.push_back({"kkt", gen::kkt_system(gen::grid2d(8, 8), 30)});
  w.push_back({"shuffled_grid", gen::relabel_random(gen::grid2d(12, 12), 11)});
  w.push_back({"forest", gen::disjoint_union({gen::path(9), gen::caterpillar(4, 2),
                                              gen::empty_graph(3)})});
  return w;
}

class RcmWorkloadProperty : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Workloads, RcmWorkloadProperty,
                         ::testing::Range(0, 16));

TEST_P(RcmWorkloadProperty, ClassicAndLevelFormulationsCoincide) {
  // Algorithm 1 (queue) and Algorithm 3 executed serially (level + sortperm)
  // must give identical labelings under the shared tie-breaking rules.
  const auto w = property_workloads()[static_cast<std::size_t>(GetParam())];
  EXPECT_EQ(cm_serial(w.matrix), cm_classic(w.matrix)) << w.name;
}

TEST_P(RcmWorkloadProperty, RcmIsValidPermutation) {
  const auto w = property_workloads()[static_cast<std::size_t>(GetParam())];
  EXPECT_TRUE(sparse::is_valid_permutation(rcm_serial(w.matrix))) << w.name;
}

TEST_P(RcmWorkloadProperty, ReversalNeverHurtsProfile) {
  // George's theorem (Liu & Sherman): profile(RCM) <= profile(CM).
  const auto w = property_workloads()[static_cast<std::size_t>(GetParam())];
  const auto cm = cm_serial(w.matrix);
  auto rcm = cm;
  reverse_labels(rcm);
  EXPECT_LE(sparse::profile_with_labels(w.matrix, rcm),
            sparse::profile_with_labels(w.matrix, cm))
      << w.name;
}

TEST_P(RcmWorkloadProperty, BandwidthEqualForCmAndRcm) {
  // Reversal preserves |label(u)-label(v)| per edge.
  const auto w = property_workloads()[static_cast<std::size_t>(GetParam())];
  const auto cm = cm_serial(w.matrix);
  auto rcm = cm;
  reverse_labels(rcm);
  EXPECT_EQ(sparse::bandwidth_with_labels(w.matrix, cm),
            sparse::bandwidth_with_labels(w.matrix, rcm))
      << w.name;
}

TEST_P(RcmWorkloadProperty, LevelSetsRespectAdjacency) {
  // In a CM ordering, each vertex's labeled neighbors must form a
  // contiguous-enough pattern: no neighbor may be labeled before the
  // vertex's parent. Weak but fully general sanity invariant: for every
  // edge (u,v), |cm[u]-cm[v]| <= bandwidth.
  const auto w = property_workloads()[static_cast<std::size_t>(GetParam())];
  const auto cm = cm_serial(w.matrix);
  const auto bw = sparse::bandwidth_with_labels(w.matrix, cm);
  for (index_t u = 0; u < w.matrix.n(); ++u) {
    for (const index_t v : w.matrix.row(u)) {
      EXPECT_LE(std::abs(cm[static_cast<std::size_t>(u)] -
                         cm[static_cast<std::size_t>(v)]),
                bw);
    }
  }
}

}  // namespace
}  // namespace drcm::order
