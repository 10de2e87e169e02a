// reorder_tool: a command-line utility in the spirit of SpMP's standalone
// reorderer — reads a Matrix Market file, computes the requested ordering,
// and writes the permuted matrix plus the permutation vector.
//
//   $ ./examples/reorder_tool input.mtx [--algo=ALGO] [output.mtx]
//
// ALGO is one of the portfolio arms rcm|sloan|gps|auto (the same names
// rcm::OrderingAlgorithm dispatches on; `sloan` is the level-synchronous
// variant rcm::dist_order distributes). `rcm` runs the distributed
// ordering on four simulated ranks (bit-identical to serial RCM) and
// prints its component count, pseudo-peripheral sweeps and how many
// speculative sweeps the search discarded. Also accepted: the serial-only
// extras nosort (the no-sorting ablation) and sloan-classic (Sloan's
// original priority-queue formulation). A bare ALGO without the --algo=
// prefix is accepted in the same position for backwards compatibility.
//
// `--algo=auto` runs the portfolio selector: it prints the O(n + nnz)
// proxies the decision was made from (the same evidence an
// OrderSolveResponse records) and the chosen arm, then orders with it.
//
// Run without arguments it demonstrates itself on a generated matrix
// written to /tmp. Unsymmetric inputs are symmetrized (A + A^T pattern),
// diagonals are stripped for the ordering and the permutation is applied
// to the ORIGINAL matrix, values included.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "order/gps.hpp"
#include "order/rcm_serial.hpp"
#include "order/sloan.hpp"
#include "rcm/ordering.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

int main(int argc, char** argv) {
  using namespace drcm;

  // Positional args (input, output) with --algo= allowed anywhere; a bare
  // method name in the second slot keeps the old CLI working.
  std::string input, method = "rcm", output;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--algo=", 7) == 0) {
      method = argv[i] + 7;
    } else if (positional == 0) {
      input = argv[i];
      ++positional;
    } else if (positional == 1 &&
               (std::strcmp(argv[i], "rcm") == 0 ||
                std::strcmp(argv[i], "sloan") == 0 ||
                std::strcmp(argv[i], "gps") == 0 ||
                std::strcmp(argv[i], "auto") == 0 ||
                std::strcmp(argv[i], "nosort") == 0 ||
                std::strcmp(argv[i], "sloan-classic") == 0)) {
      method = argv[i];
      ++positional;
    } else {
      output = argv[i];
      ++positional;
    }
  }
  if (output.empty()) {
    output = input.empty() ? "/tmp/demo_rcm.mtx" : input + ".rcm.mtx";
  }

  if (input.empty()) {
    input = "/tmp/demo_input.mtx";
    std::printf("no input given; writing a demo matrix to %s\n", input.c_str());
    const auto demo = sparse::gen::with_laplacian_values(
        sparse::gen::relabel_random(sparse::gen::grid2d(40, 40), 99));
    sparse::write_matrix_market_file(input, demo);
  }

  sparse::CsrMatrix a;
  try {
    a = sparse::read_matrix_market_file(input);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(), e.what());
    return 1;
  }
  std::printf("read %s: n=%lld nnz=%lld\n", input.c_str(),
              static_cast<long long>(a.n()), static_cast<long long>(a.nnz()));

  auto pattern = a.pattern();
  if (!pattern.is_pattern_symmetric()) {
    std::printf("pattern is unsymmetric; ordering A + A^T\n");
    pattern = sparse::gen::symmetrize(pattern);
  }
  if (pattern.has_self_loops()) pattern = pattern.strip_diagonal();

  if (method == "auto") {
    const auto choice = rcm::select_ordering(pattern);
    const auto& p = choice.proxies;
    std::printf("selector proxies: n=%lld nnz=%lld avg_degree=%.2f "
                "density=%.2e bandwidth=%lld rms_wavefront=%.1f "
                "components=%lld\n",
                static_cast<long long>(p.n), static_cast<long long>(p.nnz),
                p.avg_degree, p.density,
                static_cast<long long>(p.bandwidth), p.rms_wavefront,
                static_cast<long long>(p.components));
    method = rcm::ordering_algorithm_name(choice.algorithm);
    std::printf("selector choice: %s\n", method.c_str());
  }

  std::vector<index_t> labels;
  if (method == "rcm") {
    auto run = rcm::run_dist_order(/*nranks=*/4, pattern);
    std::printf("distributed RCM (4 simulated ranks): %d component%s, %d "
                "peripheral BFS sweeps, %d discarded\n",
                run.stats.components, run.stats.components == 1 ? "" : "s",
                run.stats.peripheral_bfs_sweeps, run.stats.discarded_sweeps);
    labels = std::move(run.labels);
  } else if (method == "sloan") {
    labels = order::sloan_levels(pattern);
  } else if (method == "gps") {
    labels = order::gps(pattern);
  } else if (method == "sloan-classic") {
    labels = order::sloan(pattern);
  } else if (method == "nosort") {
    labels = order::rcm_nosort(pattern);
  } else {
    std::fprintf(stderr,
                 "unknown method '%s' (use rcm|sloan|gps|auto|nosort|"
                 "sloan-classic)\n",
                 method.c_str());
    return 1;
  }

  std::printf("%s: bandwidth %lld -> %lld, profile %lld -> %lld\n",
              method.c_str(), static_cast<long long>(sparse::bandwidth(pattern)),
              static_cast<long long>(sparse::bandwidth_with_labels(pattern, labels)),
              static_cast<long long>(sparse::profile(pattern)),
              static_cast<long long>(sparse::profile_with_labels(pattern, labels)));

  const auto permuted = sparse::permute_symmetric(a, labels);
  sparse::write_matrix_market_file(output, permuted,
                                   permuted.is_pattern_symmetric());
  std::printf("wrote reordered matrix to %s\n", output.c_str());

  const std::string perm_path = output + ".perm";
  std::ofstream perm(perm_path);
  for (const auto l : labels) perm << l << '\n';
  std::printf("wrote permutation (labels[old]=new, 0-based) to %s\n",
              perm_path.c_str());
  return 0;
}
