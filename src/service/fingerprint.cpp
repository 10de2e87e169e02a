#include "service/fingerprint.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "dist/dist_vector.hpp"
#include "dist/redistribute.hpp"

namespace drcm::service {

namespace {

/// splitmix64 finalizer: the avalanche that makes the additive combination
/// collision-resistant (without it, sums of raw (row, col) pairs would
/// collide for any pattern with the same coordinate totals).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-entry contribution; deliberately asymmetric in (row, col) so a
/// pattern and a differently-oriented relative keep distinct hashes.
std::uint64_t mix_entry(index_t row, index_t col) {
  return mix64(static_cast<std::uint64_t>(row) * 0x9e3779b97f4a7c15ULL ^
               static_cast<std::uint64_t>(col));
}

/// The refined fingerprint's allreduce payload: the K window sub-sums, the
/// total at [K] and the plan-guard rejection count at [K + 1].
using Partial = std::array<std::uint64_t, kFingerprintWindows + 2>;

/// Local partial of the refined fingerprint over a 2D window of `a`:
/// windows[K] carries the total so the combined payload is one array;
/// [K + 1] is left for the caller. `digest`, when non-null, receives the
/// window's order-dependent digest (dist::window_digest_step).
/// The lower_bound probe only finds this rank's column slice when the
/// row's indices are sorted; CsrMatrix's constructor enforces that, and
/// the in-walk check keeps the guarantee local to this loop so a future
/// in-place mutation of col_idx can't silently split one pattern into
/// p different per-rank views (satellite: unsorted-CSR fingerprints).
Partial window_partial(const sparse::CsrMatrix& a, index_t row_lo,
                       index_t row_hi, index_t col_lo, index_t col_hi,
                       std::uint64_t* touched_nnz, std::uint64_t* digest) {
  Partial acc{};
  const index_t n = a.n();
  std::uint64_t count = 0;
  std::uint64_t d = 0;
  for (index_t gr = row_lo; gr < row_hi; ++gr) {
    const auto cols = a.row(gr);
    const auto first = std::lower_bound(cols.begin(), cols.end(), col_lo);
    const int w = fingerprint_window_of(gr, n);
    index_t prev = col_lo - 1;
    for (auto it = first; it != cols.end() && *it < col_hi; ++it) {
      DRCM_CHECK(*it > prev,
                 "fingerprint requires strictly sorted column indices");
      prev = *it;
      const std::uint64_t h = mix_entry(gr, *it);
      acc[static_cast<std::size_t>(w)] += h;
      acc[kFingerprintWindows] += h;
      if (digest != nullptr) d = dist::window_digest_step(d, gr, *it);
      ++count;
    }
  }
  if (touched_nnz != nullptr) *touched_nnz = count;
  if (digest != nullptr) *digest = d;
  return acc;
}

}  // namespace

std::size_t PatternFingerprintHash::operator()(
    const PatternFingerprint& f) const {
  return static_cast<std::size_t>(
      mix64(f.hash ^ mix64(static_cast<std::uint64_t>(f.n)) ^
            mix64(static_cast<std::uint64_t>(f.nnz) * 0x517cc1b727220a95ULL)));
}

PatternFingerprint salt_ordering_options(PatternFingerprint fp,
                                         const rcm::DistRcmOptions& options) {
  // Salience audit (see header). kAuto must be resolved by the caller:
  // salting the REQUEST algorithm instead of the one that ran would split
  // one ordering across two slots (auto vs its resolution).
  const auto algorithm = options.ordering.algorithm;
  DRCM_CHECK(algorithm != rcm::OrderingAlgorithm::kAuto,
             "resolve kAuto before salting the cache key");
  fp.hash ^= mix64(0xa190a190ULL + static_cast<std::uint64_t>(algorithm));
  if (algorithm != rcm::OrderingAlgorithm::kGps) {
    // peripheral_mode reaches the labels through the kRcm/kSloan root
    // search only; kGps never consumes it, so folding it there would split
    // identical orderings across slots.
    fp.hash ^= mix64(0x9e21f0e2a1ULL +
                     static_cast<std::uint64_t>(options.ordering.peripheral_mode));
  }
  // Seed only reaches the ordering through balance_input's random relabel,
  // so it is salient iff load_balance. The balance bit gets its own
  // constant term so a balanced entry can never alias the unbalanced one,
  // whatever mix64(seed ^ ...) returns.
  if (options.load_balance) {
    fp.hash ^= mix64(0xba1a2ce5eedULL);
    fp.hash ^= mix64(options.seed ^ 0x10adba1aceULL);
  }
  return fp;
}

RefinedFingerprint fingerprint_pattern_refined(mps::Comm& world,
                                               const sparse::CsrMatrix& a,
                                               dist::ProcGrid2D& grid,
                                               PlanGuard* guard) {
  mps::PhaseScope scope(world, mps::Phase::kOther);
  const index_t n = a.n();
  const dist::VectorDist vd(n, grid.q());
  const index_t row_lo = vd.chunk_lo(grid.row());
  const index_t row_hi = vd.chunk_lo(grid.row() + 1);
  const index_t col_lo = vd.chunk_lo(grid.col());
  const index_t col_hi = vd.chunk_lo(grid.col() + 1);

  // Same window walk as the one-shot redistribution: this rank touches
  // exactly its balanced-2D block, so the fingerprint costs O(nnz/p)
  // compute and one array allreduce (K+2 words), independent of cache
  // outcome. The window sub-sums re-bucket the identical per-entry
  // terms by row, so windows[K] == the legacy scalar hash bit for bit.
  std::uint64_t block_nnz = 0;
  std::uint64_t digest = 0;
  auto local = window_partial(a, row_lo, row_hi, col_lo, col_hi, &block_nnz,
                              guard != nullptr ? &digest : nullptr);
  world.charge_compute(static_cast<double>(block_nnz));
  // A rank without a guard, or without a plan, rejects: plan reuse needs
  // every rank's vote.
  const solver::SolvePlan* plan = guard != nullptr ? guard->plan : nullptr;
  local[kFingerprintWindows + 1] =
      plan == nullptr || plan->ranks != world.size() ||
      plan->window_digest != digest;

  const auto total =
      world.allreduce(local, [](Partial x, const Partial& y) {
        for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
        return x;
      });
  if (guard != nullptr) {
    guard->window_digest = digest;
    guard->accepted = total[kFingerprintWindows + 1] == 0;
  }

  RefinedFingerprint rf;
  rf.fp.n = n;
  rf.fp.nnz = a.nnz();
  rf.fp.hash = total[kFingerprintWindows];
  std::copy(total.begin(), total.begin() + kFingerprintWindows,
            rf.windows.begin());
  return rf;
}

RefinedFingerprint fingerprint_pattern_serial(const sparse::CsrMatrix& a) {
  // The "one rank owns everything" cut of the same sum: bit-equal to the
  // collective value because summation is partition-invariant.
  const index_t n = a.n();
  const auto total = window_partial(a, 0, n, 0, n, nullptr, nullptr);
  RefinedFingerprint rf;
  rf.fp.n = n;
  rf.fp.nnz = a.nnz();
  rf.fp.hash = total[kFingerprintWindows];
  std::copy(total.begin(), total.begin() + kFingerprintWindows,
            rf.windows.begin());
  return rf;
}

}  // namespace drcm::service
