#include "order/rcm_serial.hpp"

#include <algorithm>

#include "order/pseudo_peripheral.hpp"

namespace drcm::order {

ComponentSeeds::ComponentSeeds(const sparse::CsrMatrix& a)
    : order_(static_cast<std::size_t>(a.n())) {
  // Stable counting sort by degree: ids ascend within each degree bucket.
  index_t max_degree = 0;
  for (index_t v = 0; v < a.n(); ++v) {
    max_degree = std::max(max_degree, a.degree(v));
  }
  std::vector<std::size_t> start(static_cast<std::size_t>(max_degree) + 2, 0);
  for (index_t v = 0; v < a.n(); ++v) {
    ++start[static_cast<std::size_t>(a.degree(v)) + 1];
  }
  for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
  for (index_t v = 0; v < a.n(); ++v) {
    order_[start[static_cast<std::size_t>(a.degree(v))]++] = v;
  }
}

namespace {

using sparse::CsrMatrix;

/// Labels one component starting from `root` with consecutive labels from
/// `next_label`, level order ranked by (parent label, key_of(v), v).
/// Returns the first unused label.
template <class KeyOf>
index_t cm_component_ranked(const CsrMatrix& a, index_t root,
                            index_t next_label, std::vector<index_t>& labels,
                            const KeyOf& key_of) {
  labels[static_cast<std::size_t>(root)] = next_label++;
  std::vector<index_t> current{root};
  std::vector<index_t> next;

  struct Key {
    index_t parent_label;
    index_t degree;
    index_t vertex;
  };
  std::vector<Key> keys;

  while (!current.empty()) {
    next.clear();
    keys.clear();
    // Discover unvisited neighbors; each attaches to its minimum-label
    // parent exactly as the (select2nd, min) semiring does. Because every
    // parent in `current` is already labeled and we take the min over all
    // labeled neighbors in the frontier, thread/iteration order cannot
    // matter.
    for (const index_t u : current) {
      for (const index_t v : a.row(u)) {
        if (labels[static_cast<std::size_t>(v)] == kNoVertex) {
          labels[static_cast<std::size_t>(v)] = -2;  // discovered this level
          next.push_back(v);
        }
      }
    }
    for (const index_t v : next) {
      index_t parent_label = kNoVertex;
      for (const index_t u : a.row(v)) {
        const index_t lu = labels[static_cast<std::size_t>(u)];
        if (lu >= 0 && (parent_label == kNoVertex || lu < parent_label)) {
          parent_label = lu;
        }
      }
      keys.push_back({parent_label, key_of(v), v});
    }
    std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
      if (x.parent_label != y.parent_label) return x.parent_label < y.parent_label;
      if (x.degree != y.degree) return x.degree < y.degree;
      return x.vertex < y.vertex;
    });
    for (const Key& k : keys) {
      labels[static_cast<std::size_t>(k.vertex)] = next_label++;
    }
    current.assign(keys.size(), 0);
    for (std::size_t i = 0; i < keys.size(); ++i) current[i] = keys[i].vertex;
  }
  return next_label;
}

/// Labels one component in CM order (`sort_by_degree=false` is the no-sort
/// ablation). Returns the first unused label.
template <bool kSortByDegree>
index_t cm_component(const CsrMatrix& a, index_t root, index_t next_label,
                     std::vector<index_t>& labels) {
  return cm_component_ranked(a, root, next_label, labels, [&](index_t v) {
    return kSortByDegree ? a.degree(v) : 0;
  });
}

template <bool kSortByDegree>
std::vector<index_t> cm_all_components(const CsrMatrix& a,
                                       OrderingStats* stats,
                                       PeripheralMode mode) {
  std::vector<index_t> labels(static_cast<std::size_t>(a.n()), kNoVertex);
  index_t next_label = 0;
  OrderingStats local;
  ComponentSeeds seeds(a);
  while (next_label < a.n()) {
    const index_t seed = seeds.next(labels);
    DRCM_CHECK(seed != kNoVertex, "labels/next_label inconsistency");
    const auto peripheral = pseudo_peripheral_vertex(a, seed, mode);
    local.components += 1;
    local.peripheral_bfs_sweeps += peripheral.bfs_sweeps;
    local.ordering_levels += peripheral.eccentricity + 1;
    next_label =
        cm_component<kSortByDegree>(a, peripheral.vertex, next_label, labels);
  }
  if (stats) *stats = local;
  return labels;
}

}  // namespace

index_t cm_component_keyed(const sparse::CsrMatrix& a, index_t root,
                           index_t next_label, std::span<const index_t> keys,
                           std::vector<index_t>& labels) {
  DRCM_CHECK(keys.size() == static_cast<std::size_t>(a.n()),
             "ranking keys must cover every vertex");
  return cm_component_ranked(a, root, next_label, labels, [&](index_t v) {
    return keys[static_cast<std::size_t>(v)];
  });
}

std::vector<index_t> cm_serial(const CsrMatrix& a, OrderingStats* stats,
                               PeripheralMode mode) {
  return cm_all_components<true>(a, stats, mode);
}

std::vector<index_t> rcm_serial(const CsrMatrix& a, OrderingStats* stats,
                                PeripheralMode mode) {
  auto labels = cm_serial(a, stats, mode);
  reverse_labels(labels);
  return labels;
}

std::vector<index_t> cm_classic(const CsrMatrix& a) {
  std::vector<index_t> labels(static_cast<std::size_t>(a.n()), kNoVertex);
  std::vector<index_t> queue;  // vertices in label order
  queue.reserve(static_cast<std::size_t>(a.n()));
  index_t next_label = 0;
  std::vector<index_t> children;
  ComponentSeeds seeds(a);

  while (next_label < a.n()) {
    const index_t seed = seeds.next(labels);
    const auto peripheral = pseudo_peripheral_vertex(a, seed);
    labels[static_cast<std::size_t>(peripheral.vertex)] = next_label++;
    queue.push_back(peripheral.vertex);
    // Algorithm 1: take vertices in label order; append their unnumbered
    // neighbors in increasing degree (ties: id) order.
    for (std::size_t head = queue.size() - 1; head < queue.size(); ++head) {
      const index_t u = queue[head];
      children.clear();
      for (const index_t v : a.row(u)) {
        if (labels[static_cast<std::size_t>(v)] == kNoVertex) {
          children.push_back(v);
        }
      }
      std::sort(children.begin(), children.end(), [&](index_t x, index_t y) {
        if (a.degree(x) != a.degree(y)) return a.degree(x) < a.degree(y);
        return x < y;
      });
      for (const index_t v : children) {
        labels[static_cast<std::size_t>(v)] = next_label++;
        queue.push_back(v);
      }
    }
  }
  return labels;
}

std::vector<index_t> rcm_nosort(const CsrMatrix& a) {
  auto labels = cm_all_components<false>(a, nullptr, PeripheralMode::kGeorgeLiu);
  reverse_labels(labels);
  return labels;
}

std::vector<index_t> rcm_endsort(const CsrMatrix& a) {
  std::vector<index_t> labels(static_cast<std::size_t>(a.n()), kNoVertex);
  std::vector<index_t> level(static_cast<std::size_t>(a.n()), kNoVertex);
  std::vector<index_t> parent(static_cast<std::size_t>(a.n()), kNoVertex);

  struct Key {
    index_t component;
    index_t level;
    index_t parent;
    index_t degree;
    index_t vertex;
  };
  std::vector<Key> keys;
  keys.reserve(static_cast<std::size_t>(a.n()));

  index_t placed = 0;
  index_t component = 0;
  ComponentSeeds seeds(a);
  while (placed < a.n()) {
    const index_t seed = seeds.next(labels);
    const auto peripheral = pseudo_peripheral_vertex(a, seed);
    const index_t root = peripheral.vertex;
    // One BFS: levels plus minimum-ID parent in the previous level (labels
    // do not exist yet, so parent IDs stand in for parent labels).
    std::vector<index_t> current{root};
    level[static_cast<std::size_t>(root)] = 0;
    labels[static_cast<std::size_t>(root)] = -2;  // placed marker
    keys.push_back(Key{component, 0, kNoVertex, a.degree(root), root});
    ++placed;
    index_t depth = 0;
    while (!current.empty()) {
      std::vector<index_t> next;
      for (const index_t u : current) {
        for (const index_t v : a.row(u)) {
          if (level[static_cast<std::size_t>(v)] == kNoVertex) {
            level[static_cast<std::size_t>(v)] = depth + 1;
            next.push_back(v);
          }
        }
      }
      for (const index_t v : next) {
        index_t best = kNoVertex;
        for (const index_t u : a.row(v)) {
          if (level[static_cast<std::size_t>(u)] == depth &&
              (best == kNoVertex || u < best)) {
            best = u;
          }
        }
        parent[static_cast<std::size_t>(v)] = best;
        labels[static_cast<std::size_t>(v)] = -2;
        keys.push_back(Key{component, depth + 1, best, a.degree(v), v});
        ++placed;
      }
      current = std::move(next);
      ++depth;
    }
    ++component;
  }

  // The single global sort that replaces all per-level SORTPERMs.
  std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
    if (x.component != y.component) return x.component < y.component;
    if (x.level != y.level) return x.level < y.level;
    if (x.parent != y.parent) return x.parent < y.parent;
    if (x.degree != y.degree) return x.degree < y.degree;
    return x.vertex < y.vertex;
  });
  for (std::size_t pos = 0; pos < keys.size(); ++pos) {
    labels[static_cast<std::size_t>(keys[pos].vertex)] = static_cast<index_t>(pos);
  }
  reverse_labels(labels);
  return labels;
}

void reverse_labels(std::vector<index_t>& labels) {
  const auto n = static_cast<index_t>(labels.size());
  for (auto& l : labels) {
    DRCM_CHECK(l >= 0 && l < n, "reverse_labels requires a complete labeling");
    l = n - 1 - l;
  }
}

}  // namespace drcm::order
