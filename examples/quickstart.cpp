// Quickstart: compute an RCM ordering of a sparse symmetric matrix, both
// sequentially and on a simulated distributed grid, and inspect the
// bandwidth improvement.
//
//   $ ./examples/quickstart
//
// This is the ten-line tour of the public API:
//   sparse::gen::*          — build (or read, see reorder_tool) a matrix
//   order::rcm_serial       — sequential reference ordering
//   rcm::run_dist_order     — the paper's distributed algorithm
//   sparse::bandwidth/profile — quality metrics
#include <cstdio>

#include "order/rcm_serial.hpp"
#include "rcm/rcm_driver.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

int main() {
  using namespace drcm;
  namespace gen = sparse::gen;

  // A 64x64 5-point mesh whose vertices arrive in scrambled order — the
  // typical state of an application matrix (thermal2 in the paper arrives
  // with bandwidth 1.2M on 1.2M rows).
  const auto a = gen::relabel_random(gen::grid2d(64, 64), /*seed=*/7);
  std::printf("matrix: n=%lld, nnz=%lld\n", static_cast<long long>(a.n()),
              static_cast<long long>(a.nnz()));
  std::printf("input ordering : bandwidth %6lld, profile %10lld\n",
              static_cast<long long>(sparse::bandwidth(a)),
              static_cast<long long>(sparse::profile(a)));

  // Sequential RCM.
  const auto serial_labels = order::rcm_serial(a);
  std::printf("serial RCM     : bandwidth %6lld, profile %10lld\n",
              static_cast<long long>(sparse::bandwidth_with_labels(a, serial_labels)),
              static_cast<long long>(sparse::profile_with_labels(a, serial_labels)));

  // Distributed RCM on a 2x2 process grid (simulated ranks).
  const auto run = rcm::run_dist_order(/*nranks=*/4, a);
  std::printf("distributed RCM: bandwidth %6lld, profile %10lld "
              "(%d component%s, %d peripheral BFS sweeps)\n",
              static_cast<long long>(sparse::bandwidth_with_labels(a, run.labels)),
              static_cast<long long>(sparse::profile_with_labels(a, run.labels)),
              run.stats.components, run.stats.components == 1 ? "" : "s",
              run.stats.peripheral_bfs_sweeps);

  std::printf("orderings bit-identical: %s\n",
              run.labels == serial_labels ? "yes" : "NO (bug!)");

  // Materialize the reordered matrix if you need it downstream.
  const auto permuted = sparse::permute_symmetric(a, run.labels);
  std::printf("reordered matrix bandwidth (recomputed): %lld\n",
              static_cast<long long>(sparse::bandwidth(permuted)));
  return 0;
}
