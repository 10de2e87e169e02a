#include "order/pseudo_peripheral.hpp"

#include "sparse/graph_algo.hpp"

namespace drcm::order {

namespace {

/// Minimum-degree vertex of the last BFS level, ties to the smallest id —
/// the shrink step shared by both iterations.
index_t shrink_last_level(const sparse::CsrMatrix& a,
                          const sparse::BfsResult& b, index_t ecc) {
  index_t candidate = kNoVertex;
  for (index_t v = 0; v < a.n(); ++v) {
    if (b.level[static_cast<std::size_t>(v)] != ecc) continue;
    if (candidate == kNoVertex || a.degree(v) < a.degree(candidate)) {
      candidate = v;
    }
  }
  DRCM_CHECK(candidate != kNoVertex, "BFS last level cannot be empty");
  return candidate;
}

}  // namespace

PeripheralResult pseudo_peripheral_vertex(const sparse::CsrMatrix& a,
                                          index_t start, PeripheralMode mode) {
  DRCM_CHECK(start >= 0 && start < a.n(), "start vertex out of range");
  PeripheralResult res;
  res.vertex = start;
  if (a.degree(start) == 0) {
    // An isolated vertex is its own component: the one sweep either
    // iteration runs finds a single level, so skip its O(n) BFS.
    res.bfs_sweeps = 1;
    res.last_width = 1;
    return res;
  }

  sparse::BfsResult b = sparse::bfs(a, res.vertex);
  ++res.bfs_sweeps;
  res.eccentricity = b.eccentricity();

  if (mode == PeripheralMode::kGeorgeLiu) {
    // Mirrors paper Algorithm 2 exactly: nlvl is initialized one below the
    // first eccentricity so the loop body runs at least once, and the root
    // is updated to the candidate BEFORE the convergence test.
    index_t nlvl = res.eccentricity - 1;
    while (res.eccentricity > nlvl) {
      nlvl = res.eccentricity;
      const index_t candidate = shrink_last_level(a, b, res.eccentricity);
      if (candidate == res.vertex) break;  // isolated vertex or fixpoint
      b = sparse::bfs(a, candidate);
      ++res.bfs_sweeps;
      res.vertex = candidate;
      res.eccentricity = b.eccentricity();
    }
    res.last_width = b.level_sizes.back();
    return res;
  }

  // RCM++ bi-criteria: a sweep's candidate is ACCEPTED when it grows the
  // eccentricity, or keeps it while shrinking the last level; the iteration
  // CONTINUES only while a sweep improved both. The continuation condition
  // implies George-Liu's (eccentricity grew), so sweeps(bi) <= sweeps(GL).
  index_t width = b.level_sizes.back();
  while (true) {
    const index_t candidate = shrink_last_level(a, b, res.eccentricity);
    if (candidate == res.vertex) break;  // isolated vertex or fixpoint
    sparse::BfsResult b2 = sparse::bfs(a, candidate);
    ++res.bfs_sweeps;
    const index_t ecc2 = b2.eccentricity();
    const index_t width2 = b2.level_sizes.back();
    const bool better = ecc2 > res.eccentricity ||
                        (ecc2 == res.eccentricity && width2 < width);
    const bool advance = ecc2 > res.eccentricity && width2 < width;
    if (better) {
      res.vertex = candidate;
      res.eccentricity = ecc2;
      width = width2;
      b = std::move(b2);
    }
    if (!advance) break;
  }
  res.last_width = width;
  return res;
}

}  // namespace drcm::order
