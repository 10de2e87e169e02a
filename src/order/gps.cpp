#include "order/gps.hpp"

#include <algorithm>

#include "order/pseudo_peripheral.hpp"
#include "order/rcm_serial.hpp"
#include "sparse/graph_algo.hpp"

namespace drcm::order {

namespace {

using sparse::CsrMatrix;

/// Phase II+III for the component containing `seed`. Labels it with
/// consecutive labels from `next_label`; returns the first unused label.
index_t gps_component(const CsrMatrix& a, index_t seed, index_t next_label,
                      std::vector<index_t>& labels) {
  // --- Phase I: pseudo-diameter pair.
  const auto ps = pseudo_peripheral_vertex(a, seed);
  const index_t s = ps.vertex;
  const auto from_s = sparse::bfs(a, s);
  const index_t k = from_s.eccentricity();
  index_t e = kNoVertex;
  for (index_t v = 0; v < a.n(); ++v) {
    if (from_s.level[static_cast<std::size_t>(v)] != k) continue;
    if (e == kNoVertex || a.degree(v) < a.degree(e)) e = v;
  }
  if (e == kNoVertex) e = s;  // isolated vertex
  const auto from_e = sparse::bfs(a, e);

  // --- Phase II: combined level structure.
  // Fixed vertices: forward level == reversed backward level.
  std::vector<index_t> level(static_cast<std::size_t>(a.n()), kNoVertex);
  std::vector<index_t> members;  // component vertices
  std::vector<index_t> free_vertices;
  for (index_t v = 0; v < a.n(); ++v) {
    const index_t ls = from_s.level[static_cast<std::size_t>(v)];
    if (ls == kNoVertex) continue;  // other component
    members.push_back(v);
    const index_t le = k - from_e.level[static_cast<std::size_t>(v)];
    if (ls == le) {
      level[static_cast<std::size_t>(v)] = ls;
    } else {
      free_vertices.push_back(v);
    }
  }

  // Current level widths from the fixed vertices.
  std::vector<index_t> width(static_cast<std::size_t>(k) + 1, 0);
  for (const index_t v : members) {
    if (level[static_cast<std::size_t>(v)] != kNoVertex) {
      ++width[static_cast<std::size_t>(level[static_cast<std::size_t>(v)])];
    }
  }

  // Connected components of the free subgraph, largest first.
  std::vector<index_t> comp(static_cast<std::size_t>(a.n()), kNoVertex);
  std::vector<std::vector<index_t>> groups;
  for (const index_t start : free_vertices) {
    if (comp[static_cast<std::size_t>(start)] != kNoVertex) continue;
    std::vector<index_t> group{start};
    comp[static_cast<std::size_t>(start)] = static_cast<index_t>(groups.size());
    for (std::size_t head = 0; head < group.size(); ++head) {
      for (const index_t w : a.row(group[head])) {
        if (level[static_cast<std::size_t>(w)] == kNoVertex &&
            comp[static_cast<std::size_t>(w)] == kNoVertex &&
            from_s.level[static_cast<std::size_t>(w)] != kNoVertex) {
          comp[static_cast<std::size_t>(w)] = static_cast<index_t>(groups.size());
          group.push_back(w);
        }
      }
    }
    groups.push_back(std::move(group));
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto& x, const auto& y) { return x.size() > y.size(); });

  // Place each free component by whichever structure grows widths less.
  for (const auto& group : groups) {
    index_t max_if_s = 0, max_if_e = 0;
    for (const index_t v : group) {
      const index_t ls = from_s.level[static_cast<std::size_t>(v)];
      const index_t le = k - from_e.level[static_cast<std::size_t>(v)];
      max_if_s = std::max(max_if_s, width[static_cast<std::size_t>(ls)] + 1);
      max_if_e = std::max(max_if_e, width[static_cast<std::size_t>(le)] + 1);
    }
    const bool use_s = max_if_s <= max_if_e;
    for (const index_t v : group) {
      const index_t lv = use_s ? from_s.level[static_cast<std::size_t>(v)]
                               : k - from_e.level[static_cast<std::size_t>(v)];
      level[static_cast<std::size_t>(v)] = lv;
      ++width[static_cast<std::size_t>(lv)];
    }
  }

  // --- Phase III: CM-style numbering over the combined levels.
  std::vector<std::vector<index_t>> by_level(static_cast<std::size_t>(k) + 1);
  for (const index_t v : members) {
    by_level[static_cast<std::size_t>(level[static_cast<std::size_t>(v)])].push_back(v);
  }
  struct Key {
    index_t parent_label;
    index_t degree;
    index_t vertex;
  };
  std::vector<Key> keys;
  for (auto& lvl : by_level) {
    keys.clear();
    for (const index_t v : lvl) {
      index_t parent = kNoVertex;
      for (const index_t u : a.row(v)) {
        const index_t lu = labels[static_cast<std::size_t>(u)];
        if (lu >= 0 && (parent == kNoVertex || lu < parent)) parent = lu;
      }
      // Unreached-by-labels vertices (level 0, or levels the combined
      // structure made non-contiguous) sort after parented ones.
      keys.push_back(Key{parent == kNoVertex ? a.n() : parent, a.degree(v), v});
    }
    std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
      if (x.parent_label != y.parent_label) return x.parent_label < y.parent_label;
      if (x.degree != y.degree) return x.degree < y.degree;
      return x.vertex < y.vertex;
    });
    for (const Key& kk : keys) {
      labels[static_cast<std::size_t>(kk.vertex)] = next_label++;
    }
  }
  return next_label;
}

}  // namespace

std::vector<index_t> gps(const CsrMatrix& a) {
  std::vector<index_t> labels(static_cast<std::size_t>(a.n()), kNoVertex);
  index_t next_label = 0;
  ComponentSeeds seeds(a);
  while (next_label < a.n()) {
    next_label = gps_component(a, seeds.next(labels), next_label, labels);
  }
  reverse_labels(labels);
  return labels;
}

}  // namespace drcm::order
