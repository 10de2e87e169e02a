// Sequential Cuthill-McKee / Reverse Cuthill-McKee orderings.
//
// `cm_serial` is the exact sequential execution of the paper's Algorithm 3:
// level-synchronous expansion where each next-level vertex attaches to its
// minimum-label parent (the (select2nd, min) semiring) and the level is then
// labeled in lexicographic (parent label, degree, vertex id) order — the
// SORTPERM key. `rcm_serial` reverses it. This is the reference the
// distributed implementation must reproduce bit-for-bit.
//
// `cm_classic` is the independent textbook formulation (Algorithm 1: a
// vertex queue whose unnumbered neighbors are appended in degree order).
// With the same tie-breaking the two formulations provably coincide; the
// test suite checks that property on every workload class.
//
// Component handling: components are seeded in order of (min degree, min
// vertex id) among unvisited vertices; each seed is refined to a
// pseudo-peripheral vertex first. The final reversal flips the whole
// labeling, as in the paper ("return R in reverse order").
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "order/pseudo_peripheral.hpp"
#include "sparse/csr.hpp"

namespace drcm::order {

/// Per-run statistics (exposed for the experiment harness).
struct OrderingStats {
  int components = 0;
  int peripheral_bfs_sweeps = 0;  ///< total peripheral sweeps over all comps
  /// Total BFS levels labeled over all components (each component
  /// contributes root eccentricity + 1) — in the distributed setting every
  /// level is one fused level step of 3 barrier crossings (2 on a
  /// component's terminal level), so this is the latency figure the
  /// bi-criteria start finder tries to shrink.
  index_t ordering_levels = 0;
};

/// Cuthill-McKee labels (labels[v] = new index), level-synchronous
/// formulation. If `stats` is non-null it receives run statistics.
/// `mode` selects the pseudo-peripheral iteration seeding each component.
std::vector<index_t> cm_serial(const sparse::CsrMatrix& a,
                               OrderingStats* stats = nullptr,
                               PeripheralMode mode = PeripheralMode::kGeorgeLiu);

/// Reverse Cuthill-McKee: cm_serial with labels reversed.
std::vector<index_t> rcm_serial(const sparse::CsrMatrix& a,
                                OrderingStats* stats = nullptr,
                                PeripheralMode mode = PeripheralMode::kGeorgeLiu);

/// Labels one component in CM level order under an ARBITRARY ranking key:
/// starting from `root` (which must be unlabeled), each discovered level is
/// labeled in lexicographic (min labeled-neighbor label, keys[v], v) order
/// with consecutive labels from `next_label`; returns the first unused
/// label. With keys[v] = degree(v) this is exactly the CM expansion;
/// order::sloan_levels passes the static Sloan priority instead. This is
/// the serial reference of the distributed level kernel, which ranks by the
/// same triple through SORTPERM.
index_t cm_component_keyed(const sparse::CsrMatrix& a, index_t root,
                           index_t next_label, std::span<const index_t> keys,
                           std::vector<index_t>& labels);

/// Component seeds in discovery order: the unlabeled vertex of minimum
/// degree, ties to the smallest id — the shared component-seeding rule of
/// every portfolio ordering, so the serial arms and the distributed drivers
/// agree on component discovery order. The vertices are counting-sorted by
/// (degree, id) once; next() advances a cursor past labeled vertices.
/// Labeled vertices never become unlabeled, so the cursor never moves back
/// and a whole ordering pays O(n + max degree) for its seeds.
class ComponentSeeds {
 public:
  explicit ComponentSeeds(const sparse::CsrMatrix& a);

  /// The next vertex v in (degree, id) order with !labeled(v); kNoVertex
  /// when every vertex is labeled.
  template <class Labeled>
  index_t next(const Labeled& labeled) {
    while (cursor_ < order_.size() && labeled(order_[cursor_])) ++cursor_;
    return cursor_ < order_.size() ? order_[cursor_] : kNoVertex;
  }
  /// Same, where labels[v] != kNoVertex marks v labeled.
  index_t next(const std::vector<index_t>& labels) {
    return next([&](index_t v) {
      return labels[static_cast<std::size_t>(v)] != kNoVertex;
    });
  }

 private:
  std::vector<index_t> order_;
  std::size_t cursor_ = 0;
};

/// Textbook queue-based Cuthill-McKee (paper Algorithm 1) with the same
/// tie-breaking; used to cross-validate cm_serial.
std::vector<index_t> cm_classic(const sparse::CsrMatrix& a);

/// "Not sorting at all" ablation (paper Sec. VI future work): next-level
/// vertices are labeled by (parent label, vertex id), skipping the degree
/// key. Cheaper, usually worse bandwidth.
std::vector<index_t> rcm_nosort(const sparse::CsrMatrix& a);

/// "Global sorting at the end" ablation (the other Sec.-VI alternative):
/// one BFS assigns levels and min-ID parents, then a single global sort by
/// (level, parent id, degree, id) replaces the per-level SORTPERMs. In the
/// distributed setting this trades the per-level AlltoAll latency (the
/// Figure-4 bottleneck) for ordering quality, since parent IDs no longer
/// reflect the evolving CM order.
std::vector<index_t> rcm_endsort(const sparse::CsrMatrix& a);

/// Reverses a labeling in place: label' = n-1-label.
void reverse_labels(std::vector<index_t>& labels);

}  // namespace drcm::order
