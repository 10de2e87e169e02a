#include "rcm/trace_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace drcm::rcm {

namespace {

using sparse::CsrMatrix;

/// BFS that appends one LevelTrace per level. Returns (eccentricity, last
/// level's vertices) for the George-Liu iteration.
struct TracedBfs {
  index_t eccentricity = 0;
  std::vector<index_t> last_level;
};

TracedBfs traced_bfs(const CsrMatrix& a, index_t root,
                     std::vector<index_t>& visit_mark, index_t mark,
                     std::vector<LevelTrace>* out) {
  TracedBfs res;
  std::vector<index_t> current{root};
  visit_mark[static_cast<std::size_t>(root)] = mark;
  index_t depth = 0;
  while (true) {
    LevelTrace lvl;
    lvl.frontier = static_cast<index_t>(current.size());
    std::vector<index_t> next;
    for (const index_t u : current) {
      lvl.expansion += a.degree(u);
      for (const index_t v : a.row(u)) {
        if (visit_mark[static_cast<std::size_t>(v)] != mark) {
          visit_mark[static_cast<std::size_t>(v)] = mark;
          next.push_back(v);
        }
      }
    }
    lvl.next = static_cast<index_t>(next.size());
    if (out) out->push_back(lvl);
    if (next.empty()) break;
    res.last_level = next;
    current = std::move(next);
    ++depth;
  }
  res.eccentricity = depth;
  if (res.last_level.empty()) res.last_level = {root};  // isolated root
  return res;
}

}  // namespace

ExecutionTrace ExecutionTrace::collect(const CsrMatrix& a) {
  ExecutionTrace tr;
  tr.n = a.n();
  tr.nnz = a.nnz();

  // visit_mark doubles as the per-BFS visited set (mark = BFS ordinal) and,
  // via `labeled`, the component-done set.
  std::vector<index_t> visit_mark(static_cast<std::size_t>(a.n()), -1);
  std::vector<bool> labeled(static_cast<std::size_t>(a.n()), false);
  index_t mark = 0;
  index_t remaining = a.n();

  while (remaining > 0) {
    // Component seed: unvisited minimum degree, ties to smallest id.
    index_t seed = kNoVertex;
    for (index_t v = 0; v < a.n(); ++v) {
      if (labeled[static_cast<std::size_t>(v)]) continue;
      if (seed == kNoVertex || a.degree(v) < a.degree(seed)) seed = v;
    }
    tr.components += 1;

    // George-Liu iteration with traced sweeps: the first a plain BFS, every
    // later one a speculative CM labeling (level sizes are
    // ordering-invariant, so a plain traced BFS carries a CM run's exact
    // per-level quantities). The live speculative sweep is discarded when
    // another candidate follows it.
    index_t vertex = seed;
    auto bfs = traced_bfs(a, vertex, visit_mark, mark++, &tr.peripheral_levels);
    tr.peripheral_sweeps += 1;
    index_t ecc = bfs.eccentricity;
    index_t nlvl = ecc - 1;
    std::vector<LevelTrace> live;
    while (ecc > nlvl) {
      nlvl = ecc;
      // Candidate selection: one distributed REDUCE argmin per round.
      tr.peripheral_argmin_rounds += 1;
      index_t candidate = kNoVertex;
      for (const index_t v : bfs.last_level) {
        if (candidate == kNoVertex || a.degree(v) < a.degree(candidate) ||
            (a.degree(v) == a.degree(candidate) && v < candidate)) {
          candidate = v;
        }
      }
      if (candidate == vertex) break;
      tr.discarded_levels.insert(tr.discarded_levels.end(), live.begin(),
                                 live.end());
      live.clear();
      bfs = traced_bfs(a, candidate, visit_mark, mark++, &live);
      tr.peripheral_sweeps += 1;
      vertex = candidate;
      ecc = bfs.eccentricity;
    }
    tr.pseudo_diameter = std::max(tr.pseudo_diameter, ecc);

    // Ordering: the last speculative sweep, or — when the search stopped
    // after its plain first sweep — a separate CM pass from the root.
    if (live.empty()) traced_bfs(a, vertex, visit_mark, mark++, &live);
    tr.ordering_levels.insert(tr.ordering_levels.end(), live.begin(),
                              live.end());
    // Mark the component as labeled.
    index_t in_component = 0;
    for (index_t v = 0; v < a.n(); ++v) {
      if (visit_mark[static_cast<std::size_t>(v)] == mark - 1) {
        labeled[static_cast<std::size_t>(v)] = true;
        ++in_component;
      }
    }
    remaining -= in_component;
  }
  return tr;
}

CostBreakdown project_cost(const ExecutionTrace& trace, int cores,
                           int threads_per_process,
                           const mps::MachineParams& machine) {
  DRCM_CHECK(cores >= 1 && threads_per_process >= 1,
             "invalid machine configuration");
  DRCM_CHECK(threads_per_process <= cores, "more threads than cores");
  const double alpha = machine.alpha;
  const double beta = machine.beta;
  const double gamma = machine.gamma;
  const double total_cores = static_cast<double>(cores);
  const double P =
      std::max(1.0, total_cores / static_cast<double>(threads_per_process));
  const double q = std::sqrt(P);  // 2D grid dimension
  const double logP = P > 1 ? std::log2(P) : 0.0;
  constexpr double kEntryWords = 2.0;  // VecEntry {idx, val}
  constexpr double kTupleWords = 3.0;  // (parent, degree, id)

  CostBreakdown out;

  // One level's expansion: the local work (multiply + accumulator merge
  // multithreaded across all cores; the SET + SELECT scans fused into the
  // kernel stay attributed to Other) and the owner-direct alltoallv of the
  // partials (fan-out q), in `crossings` barrier crossings.
  const auto add_expand = [&](const LevelTrace& l, PhaseTime& spmspv,
                              PhaseTime& other, std::uint64_t crossings) {
    const double frontier = static_cast<double>(l.frontier);
    const double expansion = static_cast<double>(l.expansion);
    const double next = static_cast<double>(l.next);
    spmspv.compute += gamma * (expansion + 2.0 * next) / total_cores;
    if (P > 1) spmspv.comm += alpha * q + beta * kEntryWords * expansion / P;
    spmspv.crossings += crossings;
    other.compute += gamma * (frontier + 2.0 * next) / total_cores;
  };

  // BFS levels (dist::bfs_level_step): the frontier gather along the
  // processor column and the count of the expanded frontier ride crossing
  // 1, so a level costs 2 crossings, and the empty call that ends each BFS
  // one more (plus its count reduction).
  for (const auto& l : trace.peripheral_levels) {
    auto& comm = out.peripheral_spmspv.comm;
    if (P > 1) {
      comm += alpha * (q - 1) +
              beta * kEntryWords * static_cast<double>(l.frontier) / q;
    }
    add_expand(l, out.peripheral_spmspv, out.peripheral_other, 2);
    if (P > 1) comm += 2.0 * alpha * logP;
    if (l.next == 0) {
      out.peripheral_spmspv.crossings += 1;
      if (P > 1) out.peripheral_spmspv.comm += 2.0 * alpha * logP;
    }
  }
  // Ordering levels (dist::cm_level_step), the root's and the discarded
  // speculative sweeps' alike: the column frontier is already local, so
  // the expand is crossing 1; the deal to the parent-label stripes is
  // crossing 2, whose per-rank deal counts (an allreduce of P words) are
  // the level's count; the labels go to the q ranks of each owner's
  // processor column on crossing 3, the level's only sort-side crossing.
  // The terminal level (next == 0) ends after crossing 2.
  const auto add_cm_level = [&](const LevelTrace& l) {
    add_expand(l, out.ordering_spmspv, out.ordering_other, 2);
    if (P > 1) out.ordering_spmspv.comm += 2.0 * logP * (alpha + beta * P);
    const double next = static_cast<double>(l.next);
    out.ordering_sort.compute +=
        gamma * next * (1.0 + std::log2(next + 1.0)) / total_cores;
    if (l.next > 0) {
      out.ordering_sort.crossings += 1;
      if (P > 1) {
        out.ordering_sort.comm +=
            alpha * (P - 1) + beta * kTupleWords * next / P +  // the deal
            alpha * (P - 1) + beta * kEntryWords * next / q;   // labels
      }
    }
  };
  for (const auto& l : trace.ordering_levels) add_cm_level(l);
  for (const auto& l : trace.discarded_levels) {
    add_cm_level(l);
    // The discarded sweep's reset walks its touched list: each vertex it
    // labeled, once.
    out.ordering_other.compute +=
        gamma * static_cast<double>(l.frontier) / total_cores;
  }

  // Per George-Liu candidate selection: the REDUCE argmin over the last
  // level (an allreduce: two crossings).
  out.peripheral_other.comm +=
      (P > 1 ? 2.0 * alpha * logP : 0.0) * trace.peripheral_argmin_rounds;
  // Per component: the unvisited-argmin seed scan (another allreduce).
  out.peripheral_other.compute +=
      gamma * static_cast<double>(trace.n) * trace.components / total_cores;
  out.peripheral_other.comm +=
      (P > 1 ? 2.0 * alpha * logP : 0.0) * trace.components;
  out.peripheral_other.crossings +=
      2 * static_cast<std::uint64_t>(trace.peripheral_argmin_rounds) +
      2 * static_cast<std::uint64_t>(trace.components);

  // Setup (degree computation) and the final reversal + label replication
  // (one allgatherv: two crossings).
  const double n = static_cast<double>(trace.n);
  out.ordering_other.compute += gamma * 3.0 * n / total_cores;
  if (P > 1) {
    out.ordering_other.comm += alpha * (q - 1) + beta * n / q;
  }
  out.ordering_other.crossings += 2;
  return out;
}

}  // namespace drcm::rcm
