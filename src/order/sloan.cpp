#include "order/sloan.hpp"

#include <queue>

#include "order/pseudo_peripheral.hpp"
#include "order/rcm_serial.hpp"
#include "sparse/graph_algo.hpp"

namespace drcm::order {

namespace {

using sparse::CsrMatrix;

enum class State : unsigned char { kInactive, kPreactive, kActive, kPostactive };

/// Max-heap entry; stale priorities are skipped on pop (lazy deletion).
struct HeapEntry {
  index_t priority;
  index_t vertex;
  bool operator<(const HeapEntry& o) const {
    if (priority != o.priority) return priority < o.priority;
    return vertex > o.vertex;  // ties: smaller id wins in a max-heap
  }
};

index_t sloan_component(const CsrMatrix& a, index_t start, index_t next_label,
                        const SloanOptions& opt,
                        std::vector<index_t>& labels) {
  // Pseudo-diameter pair: s = peripheral vertex, e = far end of its BFS.
  const auto ps = pseudo_peripheral_vertex(a, start);
  const index_t s = ps.vertex;
  const auto bfs_from_s = sparse::bfs(a, s);
  index_t e = kNoVertex;
  for (index_t v = 0; v < a.n(); ++v) {
    if (bfs_from_s.level[static_cast<std::size_t>(v)] != ps.eccentricity)
      continue;
    if (e == kNoVertex || a.degree(v) < a.degree(e)) e = v;
  }
  const auto dist_to_e = sparse::bfs(a, e == kNoVertex ? s : e);

  std::vector<index_t> priority(static_cast<std::size_t>(a.n()), 0);
  std::vector<State> state(static_cast<std::size_t>(a.n()), State::kInactive);
  std::priority_queue<HeapEntry> heap;

  // Initial priority: P(v) = -W1*(deg(v)+1) + W2*dist(v,e); only vertices of
  // this component (reached from s) participate.
  for (index_t v = 0; v < a.n(); ++v) {
    if (bfs_from_s.level[static_cast<std::size_t>(v)] == kNoVertex) continue;
    priority[static_cast<std::size_t>(v)] =
        -opt.w1 * (a.degree(v) + 1) +
        opt.w2 * dist_to_e.level[static_cast<std::size_t>(v)];
  }
  state[static_cast<std::size_t>(s)] = State::kPreactive;
  heap.push({priority[static_cast<std::size_t>(s)], s});

  const auto bump = [&](index_t v, index_t delta) {
    priority[static_cast<std::size_t>(v)] += delta;
    heap.push({priority[static_cast<std::size_t>(v)], v});
  };

  while (!heap.empty()) {
    const auto [prio, v] = heap.top();
    heap.pop();
    if (prio != priority[static_cast<std::size_t>(v)]) continue;  // stale
    const State sv = state[static_cast<std::size_t>(v)];
    if (sv == State::kPostactive) continue;

    if (sv == State::kPreactive) {
      // Numbering a preactive vertex activates its inactive/preactive
      // neighborhood: each neighbor's future wavefront increment drops.
      for (const index_t w : a.row(v)) {
        auto& sw = state[static_cast<std::size_t>(w)];
        if (sw == State::kInactive) {
          sw = State::kPreactive;
          bump(w, opt.w1);
        } else if (sw == State::kPreactive || sw == State::kActive) {
          bump(w, opt.w1);
        }
      }
    }
    state[static_cast<std::size_t>(v)] = State::kPostactive;
    labels[static_cast<std::size_t>(v)] = next_label++;

    for (const index_t w : a.row(v)) {
      auto& sw = state[static_cast<std::size_t>(w)];
      if (sw == State::kPreactive) {
        sw = State::kActive;
        bump(w, opt.w1);
        // Activating w preactivates ITS inactive neighbors.
        for (const index_t x : a.row(w)) {
          auto& sx = state[static_cast<std::size_t>(x)];
          if (sx == State::kInactive) {
            sx = State::kPreactive;
            bump(x, opt.w1);
          } else if (sx != State::kPostactive) {
            bump(x, opt.w1);
          }
        }
      }
    }
  }
  return next_label;
}

}  // namespace

std::vector<index_t> sloan(const CsrMatrix& a, SloanOptions opt) {
  DRCM_CHECK(opt.w1 >= 0 && opt.w2 >= 0, "Sloan weights must be non-negative");
  std::vector<index_t> labels(static_cast<std::size_t>(a.n()), kNoVertex);
  index_t next_label = 0;
  ComponentSeeds seeds(a);
  while (next_label < a.n()) {
    next_label = sloan_component(a, seeds.next(labels), next_label, opt, labels);
  }
  return labels;
}

std::vector<index_t> sloan_levels(const CsrMatrix& a, SloanOptions opt,
                                  PeripheralMode mode) {
  DRCM_CHECK(opt.w1 >= 0 && opt.w2 >= 0, "Sloan weights must be non-negative");
  std::vector<index_t> labels(static_cast<std::size_t>(a.n()), kNoVertex);
  std::vector<index_t> keys(static_cast<std::size_t>(a.n()), 0);
  index_t next_label = 0;
  ComponentSeeds seeds(a);
  while (next_label < a.n()) {
    const index_t seed = seeds.next(labels);
    DRCM_CHECK(seed != kNoVertex, "labels/next_label inconsistency");
    // The same pseudo-diameter pair classic Sloan computes: s = peripheral
    // vertex, e = min-degree (ties id) vertex of s's last BFS level.
    const auto ps = pseudo_peripheral_vertex(a, seed, mode);
    const index_t s = ps.vertex;
    const auto bfs_from_s = sparse::bfs(a, s);
    index_t e = kNoVertex;
    for (index_t v = 0; v < a.n(); ++v) {
      if (bfs_from_s.level[static_cast<std::size_t>(v)] != ps.eccentricity)
        continue;
      if (e == kNoVertex || a.degree(v) < a.degree(e)) e = v;
    }
    DRCM_CHECK(e != kNoVertex, "BFS last level cannot be empty");
    const auto dist_to_e = sparse::bfs(a, e);
    const index_t ecc_e = dist_to_e.eccentricity();

    // Static key = the negated initial Sloan priority, shifted by
    // w2 * ecc(e) so it is non-negative (dist <= ecc(e) within the
    // component). Bounded by w1 * n + w2 * (n - 1) < 3n with the default
    // weights — the bound the distributed SORTPERM's receive-path range
    // checks admit for ranking keys.
    for (index_t v = 0; v < a.n(); ++v) {
      const index_t lev = dist_to_e.level[static_cast<std::size_t>(v)];
      if (lev == kNoVertex) continue;  // other component
      keys[static_cast<std::size_t>(v)] =
          opt.w1 * (a.degree(v) + 1) + opt.w2 * (ecc_e - lev);
    }
    next_label = cm_component_keyed(a, s, next_label, keys, labels);
  }
  return labels;  // Sloan numbers front-to-back: no reversal
}

}  // namespace drcm::order
