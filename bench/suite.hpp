// The benchmark matrix suite: synthetic stand-ins for the paper's Figure-3
// matrices (each matches its SuiteSparse original's diameter regime, degree
// profile and natural-ordering quality, since the originals cannot ship
// with the repo), plus shared formatting and argument helpers for the bench
// binaries.
//
// Every bench accepts `--scale S` (default 1.0): linear dimensions grow
// with S so the suite can be pushed toward paper-scale sizes on bigger
// machines. Paper reference values (dimensions, bandwidths, pseudo-
// diameter) are carried alongside each stand-in so benches can print
// paper-vs-ours tables directly.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

namespace drcm::bench {

struct PaperRef {
  const char* matrix;       ///< paper matrix name
  double rows_millions;     ///< paper dimension (millions)
  double nnz_millions;      ///< paper nonzeros (millions)
  long long bw_pre;         ///< paper pre-RCM bandwidth
  long long bw_post;        ///< paper post-RCM bandwidth
  long long pseudo_diameter;
};

struct SuiteEntry {
  std::string name;           ///< stand-in name
  PaperRef paper;             ///< the paper matrix it substitutes
  sparse::CsrMatrix pattern;  ///< symmetric self-loop-free adjacency
};

inline index_t scaled(double scale, index_t dim) {
  const auto v = static_cast<index_t>(static_cast<double>(dim) * scale);
  return v < 2 ? 2 : v;
}

/// Builds the nine-matrix suite at the given scale.
inline std::vector<SuiteEntry> make_suite(double scale = 1.0) {
  namespace gen = sparse::gen;
  using gen::Stencil3d;
  std::vector<SuiteEntry> suite;

  // nd24k: 3D mesh problem, very dense rows, tiny diameter (14).
  suite.push_back({"mesh3d_wide",
                   {"nd24k", 0.072, 29.0, 68114, 10294, 14},
                   gen::grid3d(scaled(scale, 16), scaled(scale, 16),
                               scaled(scale, 16), Stencil3d::k27)});
  // ldoor: structural problem, high diameter (178), arrives scattered.
  suite.push_back({"shell3d",
                   {"ldoor", 0.952, 42.49, 686979, 9259, 178},
                   gen::relabel_random(
                       gen::grid3d(scaled(scale, 7), scaled(scale, 7),
                                   scaled(scale, 180), Stencil3d::k27),
                       1001)});
  // Serena: RCM-ineffective (long-range couplings), moderate diameter.
  suite.push_back({"layered_rand",
                   {"Serena", 1.39, 64.1, 81578, 81218, 58},
                   gen::add_random_long_edges(
                       gen::grid3d(scaled(scale, 14), scaled(scale, 14),
                                   scaled(scale, 14), Stencil3d::k7),
                       0.40, 1002)});
  // audikw_1: structural, mid diameter (82).
  suite.push_back({"solid3d",
                   {"audikw_1", 0.943, 78.0, 925946, 35170, 82},
                   gen::relabel_random(
                       gen::grid3d(scaled(scale, 11), scaled(scale, 11),
                                   scaled(scale, 44), Stencil3d::k27),
                       1003)});
  // dielFilterV3real: higher-order FEM, mid diameter (84).
  suite.push_back({"fem3d",
                   {"dielFilterV3real", 1.1, 89.3, 1036475, 23813, 84},
                   gen::relabel_random(
                       gen::grid3d(scaled(scale, 9), scaled(scale, 13),
                                   scaled(scale, 40), Stencil3d::k27),
                       1004)});
  // Flan_1565: already banded in natural order — RCM is a no-op.
  suite.push_back({"banded_nat",
                   {"Flan_1565", 1.6, 114.0, 20702, 20600, 199},
                   gen::grid3d(scaled(scale, 9), scaled(scale, 9),
                               scaled(scale, 56), Stencil3d::k27)});
  // Li7Nmax6: nuclear CI, tiny diameter (7), RCM barely helps.
  suite.push_back({"cigraph_small",
                   {"Li7Nmax6", 0.664, 212.0, 663498, 490000, 7},
                   gen::erdos_renyi(scaled(scale, 3000), 16.0, 1005)});
  // Nm7: bigger nuclear CI, diameter 5.
  suite.push_back({"cigraph_large",
                   {"Nm7", 4.0, 437.0, 4073382, 3692599, 5},
                   gen::erdos_renyi(scaled(scale, 8000), 24.0, 1006)});
  // nlpkkt240: KKT system, huge diameter (243), arrives scattered.
  {
    const auto h = gen::grid3d(scaled(scale, 8), scaled(scale, 8),
                               scaled(scale, 100), Stencil3d::k7);
    suite.push_back({"kkt_mesh",
                     {"nlpkkt240", 77.8, 760.0, 14169841, 361755, 243},
                     gen::relabel_random(gen::kkt_system(h, h.n() / 2, 3),
                                         1007)});
  }
  return suite;
}

/// Suite entry lookup by stand-in name. Figure drivers that need one
/// specific matrix must select it by name — positional indexing silently
/// re-points a figure whenever the suite order changes.
inline const SuiteEntry& entry_named(const std::vector<SuiteEntry>& suite,
                                     const char* name) {
  for (const auto& e : suite) {
    if (e.name == name) return e;
  }
  std::fprintf(stderr, "suite entry '%s' not found\n", name);
  std::abort();
}

/// `--scale S` command-line option (shared by all bench binaries).
inline double scale_from_args(int argc, char** argv, double fallback = 1.0) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      return std::atof(argv[i + 1]);
    }
  }
  return fallback;
}

/// Prints a horizontal rule of the given width.
inline void rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace drcm::bench
