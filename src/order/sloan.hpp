// Sloan's profile/wavefront reduction ordering.
//
// The paper cites Sloan's algorithm [6] as the other classic profile
// heuristic; it is included as a quality baseline for the ordering-quality
// experiments (it often yields smaller profile than RCM at higher cost).
//
// Standard formulation (Sloan 1986): vertices move through states
// inactive -> preactive -> active -> postactive; the next vertex maximizes
//   P(v) = -W1 * incr(v) + W2 * dist(v, e)
// where incr(v) is the wavefront growth of numbering v and dist(v, e) the
// BFS distance to the end vertex e of a pseudo-diameter pair (s, e).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "order/pseudo_peripheral.hpp"
#include "sparse/csr.hpp"

namespace drcm::order {

struct SloanOptions {
  index_t w1 = 2;  ///< weight of the wavefront-increment term
  index_t w2 = 1;  ///< weight of the distance-to-end term
};

/// Sloan labels (labels[v] = new index). Handles disconnected graphs by
/// seeding components like rcm_serial (min degree, min id).
std::vector<index_t> sloan(const sparse::CsrMatrix& a, SloanOptions opt = {});

/// LEVEL-SYNCHRONOUS Sloan — the portfolio's distributable variant, and the
/// bit-identity reference of rcm::dist_order's kSloan arm.
///
/// The classic formulation above is an inherently sequential priority-queue
/// scan (every pop changes its neighbors' priorities). This variant keeps
/// Sloan's objective but freezes the DYNAMIC part of the priority: per
/// component it computes the pseudo-diameter pair (s, e) exactly like
/// `sloan`, assigns every vertex the static key
///   k(v) = w1 * (deg(v) + 1) + w2 * (ecc(e) - dist(v, e))
/// (the negated initial Sloan priority, shifted non-negative; SMALLER key =
/// higher priority), and expands CM-style levels from s ranked by
/// (parent label, k(v), id) — the same SORTPERM-shaped triple the fused
/// distributed level kernel ranks by, with k(v) substituted for the degree.
/// No final reversal (Sloan numbers front-to-back). Quality sits between
/// RCM and classic Sloan on wavefront, and it parallelizes exactly like
/// RCM: one fused level step per level, 3 barrier crossings (2 on the
/// terminal level).
std::vector<index_t> sloan_levels(
    const sparse::CsrMatrix& a, SloanOptions opt = {},
    PeripheralMode mode = PeripheralMode::kGeorgeLiu);

}  // namespace drcm::order
