// The ordering portfolio's algorithm-agnostic surface.
//
// The distributed machinery (fused BFS/ordering levels, SORTPERM, the
// service cache) is algorithm-independent: anything expressible as
// "level-synchronous expansion ranked by (parent label, key, id)" runs on
// it unchanged. OrderingSpec names WHICH ordering a request wants;
// rcm::dist_order (rcm_driver.hpp) dispatches on it, and the serving
// layer folds it into the cache fingerprint salt so entries from different
// algorithms can never collide.
//
// kAuto is the portfolio selector: cheap O(n + nnz) per-matrix proxies
// (natural bandwidth, RMS wavefront, density, component count) computed
// once on the driver, reduced to a deterministic choice. The choice and
// its proxies are recorded in OrderSolveResponse so callers can audit
// every auto decision.
#pragma once

#include "common/types.hpp"
#include "order/pseudo_peripheral.hpp"
#include "sparse/csr.hpp"

namespace drcm::rcm {

/// Shared serial/distributed peripheral-iteration knob (re-exported from
/// the serial layer; rcm/dist_peripheral.hpp uses the same alias).
using order::PeripheralMode;

enum class OrderingAlgorithm {
  kRcm,    ///< distributed reverse Cuthill-McKee (the paper's algorithm)
  kSloan,  ///< level-synchronous Sloan over the same fused level kernel
  kGps,    ///< Gibbs-Poole-Stockmeyer (replicated serial arm in v1)
  kAuto,   ///< proxy-based per-matrix selection among the above
};

/// Which ordering a request wants, carried through DistRcmOptions,
/// OrderSolveRequest and the cache fingerprint salt.
struct OrderingSpec {
  OrderingAlgorithm algorithm = OrderingAlgorithm::kRcm;
  /// Pseudo-peripheral iteration seeding each component (consumed by the
  /// kRcm and kSloan arms; kGps runs its own internal George-Liu pass).
  PeripheralMode peripheral_mode = PeripheralMode::kGeorgeLiu;
};

const char* ordering_algorithm_name(OrderingAlgorithm algorithm);
const char* peripheral_mode_name(PeripheralMode mode);

/// The selector's evidence: one O(n + nnz) driver-side pass, no collective.
struct OrderingProxies {
  index_t n = 0;
  nnz_t nnz = 0;
  double avg_degree = 0.0;
  double density = 0.0;       ///< nnz / n^2 (0 for n == 0)
  index_t bandwidth = 0;      ///< natural-ordering bandwidth
  double rms_wavefront = 0.0; ///< natural-ordering RMS wavefront (flop proxy)
  index_t components = 0;
};

/// Computes the proxies of `a` (any symmetric pattern; a stored diagonal is
/// harmless). Deterministic, driver-side, O(n + nnz).
OrderingProxies ordering_proxies(const sparse::CsrMatrix& a);

struct OrderingChoice {
  OrderingAlgorithm algorithm = OrderingAlgorithm::kRcm;
  OrderingProxies proxies{};
};

/// Resolves kAuto: computes the proxies and deterministically picks a
/// CONCRETE algorithm (never kAuto). The rule is calibrated on the
/// fig3_matrix_suite scoreboard so the chosen algorithm's bandwidth is
/// never worse than always-RCM there (CI-gated from BENCH_5.json); see
/// ordering.cpp for the thresholds and their calibration notes.
OrderingChoice select_ordering(const sparse::CsrMatrix& a);

}  // namespace drcm::rcm
