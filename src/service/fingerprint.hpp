// Sparsity-pattern identity for the ordering cache.
//
// RCM depends only on the pattern of the matrix, so two requests whose
// matrices share a pattern can share an ordering — the serving layer's
// whole cache premise. The fingerprint is (n, nnz, structure hash), where
// the hash is a wraparound SUM over all entries of a splitmix64-style mix
// of each entry's (row, col). Summation is commutative and associative,
// which makes the hash PARTITION-INVARIANT: any grid cut of the same
// pattern — a 2x2 lane today, a 3x3 lane tomorrow — reduces to the same
// value, so cache entries survive lane reshaping. Each rank mixes only its
// own 2D window (O(nnz/p) work) and ONE allreduce combines the partials;
// the collective is charged to Phase::kOther, so a cache probe never
// touches the ordering-phase crossing ledger the hit path asserts on.
//
// DELTA REFINEMENT (incremental repair): the same sum is also kept per
// contiguous ROW WINDOW — kFingerprintWindows sub-sums whose total IS the
// structure hash (summation re-associates freely). A near-miss pattern is
// diffed window-by-window against a cached entry, which tells the repair
// path WHICH row ranges changed without storing the pattern itself; the
// windows ride the same single allreduce as the total (K+1 words instead
// of 1, plus the plan guard's word below). Because the stored pattern is
// symmetric, both endpoints of every changed entry live in a changed
// window — the property the BFS-cone bound in rcm::dist_rcm_repair relies
// on.
//
// PLAN GUARD: the same walk folds an order-dependent digest of each rank's
// window, and the allreduce carries one more word, the number of ranks
// whose digest disagrees with the solve plan the request means to reuse —
// so a cache hit decides plan reuse on every rank together, with no
// collective of its own.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dist/proc_grid.hpp"
#include "rcm/rcm_driver.hpp"
#include "solver/dist_cg.hpp"
#include "sparse/csr.hpp"

namespace drcm::service {

/// Row-window count of the refined fingerprint. Fixed so every cache
/// entry's window vector is comparable regardless of when it was inserted.
inline constexpr int kFingerprintWindows = 16;

struct PatternFingerprint {
  index_t n = 0;
  nnz_t nnz = 0;
  std::uint64_t hash = 0;
  friend bool operator==(const PatternFingerprint&,
                         const PatternFingerprint&) = default;
};

/// The per-row-window refinement: `fp` plus the K window sub-sums it is
/// the total of. Windows partition the ORIGINAL row space evenly
/// (row r -> window r * K / n), so two refined fingerprints of the same n
/// are diffed element-wise.
struct RefinedFingerprint {
  PatternFingerprint fp{};
  std::array<std::uint64_t, kFingerprintWindows> windows{};
};

/// Window of row `r` for dimension `n` (n > 0, 0 <= r < n).
inline int fingerprint_window_of(index_t r, index_t n) {
  return static_cast<int>((static_cast<std::int64_t>(r) *
                           kFingerprintWindows) /
                          (n > 0 ? n : 1));
}

/// Row range [lo, hi) of window `w` for dimension `n`.
inline std::pair<index_t, index_t> fingerprint_window_rows(int w, index_t n) {
  const auto lo = static_cast<index_t>(
      (static_cast<std::int64_t>(w) * n) / kFingerprintWindows);
  const auto hi = static_cast<index_t>(
      (static_cast<std::int64_t>(w + 1) * n) / kFingerprintWindows);
  return {lo, hi};
}

/// Hash functor for unordered_map keys (mixes all three fields; the
/// structure hash alone would collide for patterns that differ only in n,
/// e.g. trailing isolated vertices).
struct PatternFingerprintHash {
  std::size_t operator()(const PatternFingerprint& f) const;
};

/// Collective on the grid's world: every rank mixes its 2D window of `a`
/// (the same replicated fixture everywhere) and one allreduce returns the
/// identical fingerprint on every rank.
PatternFingerprint fingerprint_pattern(mps::Comm& world,
                                       const sparse::CsrMatrix& a,
                                       dist::ProcGrid2D& grid);

/// The solve-plan guard that rides the fingerprint's allreduce. A cached
/// solver::SolvePlan is only valid for the exact input windows it was
/// routed from; the fingerprint's partition-invariant sum cannot vouch for
/// that (a collision, or a pattern whose entries moved between windows),
/// so the same walk also folds each rank's order-dependent window digest
/// (dist::window_digest_step) and one more carried word counts the ranks
/// whose digest differs from their plan's.
struct PlanGuard {
  /// In: this rank's candidate plan, or null when it has none.
  const solver::SolvePlan* plan = nullptr;
  /// Out: this rank's window digest.
  std::uint64_t window_digest = 0;
  /// Out, identical on every rank: every rank had a plan built on a world
  /// of this size whose digest equals its window's.
  bool accepted = false;
};

/// The refined collective: identical total hash, plus the K row-window
/// sub-sums, still in ONE allreduce (K+2 carried words: the windows, the
/// total and the plan-guard rejection count). fp.hash equals
/// fingerprint_pattern's bit for bit — the windows merely re-bucket the
/// same per-entry terms by row. `guard`, when non-null, is decided in the
/// same allreduce.
RefinedFingerprint fingerprint_pattern_refined(mps::Comm& world,
                                               const sparse::CsrMatrix& a,
                                               dist::ProcGrid2D& grid,
                                               PlanGuard* guard = nullptr);

/// Driver-side (non-collective) twin of fingerprint_pattern_refined: one
/// full-matrix walk producing the SAME value the lanes allreduce — the
/// summation is partition-invariant, so "one rank owning everything" is
/// just another cut. The serving layer uses it to classify a batch
/// (coalescing, repair candidates) BEFORE any lane launches; the lanes
/// recompute it collectively (charged) and DRCM_CHECK agreement.
RefinedFingerprint fingerprint_pattern_serial(const sparse::CsrMatrix& a);

/// Folds the ordering-salient options into the key. Salience audit:
///  * algorithm is ALWAYS salient — different algorithms produce different
///    labelings of the same pattern, so their entries must never collide;
///    kAuto must be resolved to a concrete algorithm BEFORE salting
///    (DRCM_CHECKed), otherwise an auto entry and its resolved twin would
///    occupy different slots for the same ordering.
///  * peripheral_mode is salient for kRcm and kSloan (it changes the
///    per-component root, hence the labels) but NOT for kGps, whose
///    internal level-structure search never consumes the knob — two kGps
///    requests differing only in peripheral_mode share one ordering and
///    MUST share one slot (the same honesty rule as the seed below).
///  * Seed-salience (PR 9): DistRcmOptions::seed is consumed in exactly
///    one place — the load-balancing random relabel in balance_input — so
///    with load_balance=false two differently-seeded requests share one
///    slot (pinned by ServiceCache.UnbalancedSeedIsNotSalient). With
///    load_balance=true both the balance bit and the seed are folded; the
///    bit gets its own constant so a balanced entry cannot collide with
///    the unbalanced one even for a seed whose mix happens to vanish.
/// Purely local (no collective); deterministic, so every rank derives the
/// same salted key from the same allreduced fingerprint.
PatternFingerprint salt_ordering_options(PatternFingerprint fp,
                                         const rcm::DistRcmOptions& options);

}  // namespace drcm::service
