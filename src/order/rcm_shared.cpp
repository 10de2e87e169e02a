#include "order/rcm_shared.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>

#include "order/pseudo_peripheral.hpp"
#include "order/rcm_serial.hpp"

namespace drcm::order {

namespace {

using sparse::CsrMatrix;

struct Key {
  index_t parent_label;
  index_t degree;
  index_t vertex;

  bool operator<(const Key& o) const {
    if (parent_label != o.parent_label) return parent_label < o.parent_label;
    if (degree != o.degree) return degree < o.degree;
    return vertex < o.vertex;
  }
};

/// Parallel CM labeling of one component rooted at `root`.
index_t cm_component_parallel(const CsrMatrix& a, index_t root,
                              index_t next_label,
                              std::vector<std::atomic<index_t>>& labels) {
  labels[static_cast<std::size_t>(root)].store(next_label++,
                                               std::memory_order_relaxed);
  std::vector<index_t> current{root};
  std::vector<index_t> next;
  std::vector<Key> keys;

  while (!current.empty()) {
    next.clear();
    // Parallel discovery: first thread to CAS an unvisited neighbor from
    // kNoVertex to the kDiscovered sentinel claims it for this level.
    constexpr index_t kDiscovered = -2;
#pragma omp parallel
    {
      std::vector<index_t> local;
#pragma omp for schedule(dynamic, 64) nowait
      for (std::size_t i = 0; i < current.size(); ++i) {
        for (const index_t v : a.row(current[i])) {
          index_t expected = kNoVertex;
          if (labels[static_cast<std::size_t>(v)].compare_exchange_strong(
                  expected, kDiscovered, std::memory_order_relaxed)) {
            local.push_back(v);
          }
        }
      }
#pragma omp critical(drcm_rcm_shared_merge)
      next.insert(next.end(), local.begin(), local.end());
    }

    // Parent derivation + sort key, in parallel. The minimum-label visited
    // neighbor is a pure function of the level sets, so the nondeterministic
    // discovery order above cannot leak into the result.
    keys.resize(next.size());
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < next.size(); ++i) {
      const index_t v = next[i];
      index_t parent_label = kNoVertex;
      for (const index_t u : a.row(v)) {
        const index_t lu =
            labels[static_cast<std::size_t>(u)].load(std::memory_order_relaxed);
        if (lu >= 0 && (parent_label == kNoVertex || lu < parent_label)) {
          parent_label = lu;
        }
      }
      keys[i] = Key{parent_label, a.degree(v), v};
    }
    std::sort(keys.begin(), keys.end());

    current.resize(keys.size());
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < keys.size(); ++i) {
      labels[static_cast<std::size_t>(keys[i].vertex)].store(
          next_label + static_cast<index_t>(i), std::memory_order_relaxed);
      current[i] = keys[i].vertex;
    }
    next_label += static_cast<index_t>(keys.size());
  }
  return next_label;
}

}  // namespace

std::vector<index_t> rcm_shared(const CsrMatrix& a, int num_threads) {
  const int saved = omp_get_max_threads();
  if (num_threads > 0) omp_set_num_threads(num_threads);

  std::vector<std::atomic<index_t>> labels(static_cast<std::size_t>(a.n()));
  for (auto& l : labels) l.store(kNoVertex, std::memory_order_relaxed);

  index_t next_label = 0;
  ComponentSeeds seeds(a);
  while (next_label < a.n()) {
    // Component seed: min degree, ties to smallest id (same as serial).
    const index_t seed = seeds.next([&](index_t v) {
      return labels[static_cast<std::size_t>(v)].load(
                 std::memory_order_relaxed) != kNoVertex;
    });
    const auto peripheral = pseudo_peripheral_vertex(a, seed);
    next_label = cm_component_parallel(a, peripheral.vertex, next_label, labels);
  }

  if (num_threads > 0) omp_set_num_threads(saved);

  std::vector<index_t> out(static_cast<std::size_t>(a.n()));
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = labels[v].load(std::memory_order_relaxed);
  }
  reverse_labels(out);
  return out;
}

}  // namespace drcm::order
