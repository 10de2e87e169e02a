// Serial oracles for one fused level step, shared by the level-kernel and
// ordering-level equivalence suites: what dist::bfs_level_step and
// dist::cm_level_step must return, computed on the replicated pattern.
#pragma once

#include <algorithm>
#include <tuple>
#include <vector>

#include "dist/dist_vector.hpp"
#include "sparse/csr.hpp"

namespace drcm::dist::testing {

/// One BFS level: every v with dense[v] == keep that is adjacent to a
/// vertex of `frontier`, valued by the minimum dense[u] over its frontier
/// neighbours u, ascending by v. Frontier values do not matter: the
/// kernel's SET stage refreshes them from `dense`.
inline std::vector<VecEntry> serial_level(const sparse::CsrMatrix& a,
                                          const std::vector<index_t>& frontier,
                                          const std::vector<index_t>& dense,
                                          index_t keep) {
  const auto at = [](index_t v) { return static_cast<std::size_t>(v); };
  std::vector<char> in(at(a.n()), 0);
  for (const index_t u : frontier) in[at(u)] = 1;
  std::vector<VecEntry> next;
  for (index_t v = 0; v < a.n(); ++v) {
    if (dense[at(v)] != keep) continue;
    bool reached = false;
    index_t best = 0;
    for (const index_t u : a.row(v)) {
      if (!in[at(u)]) continue;
      best = reached ? std::min(best, dense[at(u)]) : dense[at(u)];
      reached = true;
    }
    if (reached) next.push_back(VecEntry{v, best});
  }
  return next;
}

/// One Cuthill-McKee level: serial_level over `labels` (kNoVertex =
/// unlabeled), ranked by (parent label, degree, id) and written into
/// `labels` as consecutive labels from `next_label`. Returns the level,
/// valued by minimum parent label.
inline std::vector<VecEntry> serial_cm_level(
    const sparse::CsrMatrix& a, const std::vector<index_t>& frontier,
    std::vector<index_t>& labels, index_t next_label) {
  const auto next = serial_level(a, frontier, labels, kNoVertex);
  auto ranked = next;
  std::sort(ranked.begin(), ranked.end(),
            [&](const VecEntry& x, const VecEntry& y) {
              return std::tuple(x.val, a.degree(x.idx), x.idx) <
                     std::tuple(y.val, a.degree(y.idx), y.idx);
            });
  for (const auto& e : ranked) {
    labels[static_cast<std::size_t>(e.idx)] = next_label++;
  }
  return next;
}

/// The vertex ids of a level.
inline std::vector<index_t> support(const std::vector<VecEntry>& level) {
  std::vector<index_t> ids;
  for (const auto& e : level) ids.push_back(e.idx);
  return ids;
}

/// The entries of an ascending global list that `v`'s rank owns.
inline std::vector<VecEntry> owned_slice(const std::vector<VecEntry>& all,
                                         const DistSpVec& v) {
  std::vector<VecEntry> mine;
  for (const auto& e : all) {
    if (e.idx >= v.lo() && e.idx < v.hi()) mine.push_back(e);
  }
  return mine;
}

}  // namespace drcm::dist::testing
