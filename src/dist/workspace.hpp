// Per-rank scratch memory for the distributed kernels.
//
// The SpMSpV accumulators, the SORTPERM routing passes and the fused level
// kernel all need O(local_rows) / O(frontier) scratch every call. Before
// this object existed the SPA lived in a `thread_local` inside spmspv.cpp:
// invisible to callers, sized by whichever matrix touched it last, leaked
// across Runtime::run invocations on reused threads, and outside the
// reallocation ledger. A DistWorkspace is owned per rank (ProcGrid2D
// carries one; callers may pass their own), so the scoping is explicit and
// two matrices of different dimensions on one rank can alternate kernels
// through it safely:
//
//   * StampedSlots buffers never need clearing — a slot is live only when
//     its stamp equals the epoch opened by the current call, so a small
//     matrix reusing a buffer grown by a big one reads no stale state;
//   * plain scratch vectors are cleared (not shrunk) on checkout, so
//     steady-state BFS levels run scratch-allocation-free after warm-up
//     (result vectors handed to the caller are the only per-level
//     allocations left);
//   * every capacity growth is counted, which is how the workspace tests
//     pin the "no reallocation after warm-up" property.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "dist/vec_entry.hpp"

namespace drcm::dist {

/// Dense accumulator array with timestamp reset: slot s holds a valid value
/// only when stamp[s] equals the epoch of the latest begin(). Consecutive
/// uses pay O(touched), not O(size) clearing, and a use over a smaller
/// range than the last one cannot observe the previous caller's values.
struct StampedSlots {
  std::vector<index_t> val;
  std::vector<u64> stamp;
  u64 epoch = 0;

  /// Opens a fresh epoch over `n` slots; returns true if storage grew.
  bool begin(std::size_t n) {
    ++epoch;
    if (val.size() < n) {
      val.resize(n);
      stamp.resize(n, 0);
      return true;
    }
    return false;
  }

  bool live(std::size_t s) const { return stamp[s] == epoch; }

  /// Min-combines `v` into slot s (first write wins unconditionally).
  /// Returns true when this write opened the slot in the current epoch —
  /// the hook callers use to record the slots they touch.
  bool put_min(std::size_t s, index_t v) {
    if (stamp[s] != epoch) {
      stamp[s] = epoch;
      val[s] = v;
      return true;
    }
    if (v < val[s]) val[s] = v;
    return false;
  }
};

/// One SORTPERM element in flight: (parent bucket, degree, global index).
struct SortRec {
  index_t bucket;
  index_t degree;
  index_t idx;
};

/// Per-thread stage-2 stripe of the hybrid node-level SpMSpV: thread t of
/// the OpenMP team owns a contiguous slice of the gathered frontier and
/// emits its row-stripe of the merged per-thread SPAs into `emit`, so no
/// two threads ever share mutable state. The calling thread then
/// concatenates the emissions in thread order — a deterministic reduction
/// that keeps the hybrid output identical at any thread count.
///
/// `touched` records the rows this thread's SPA first-touched during
/// accumulation, which makes the merge OUTPUT-SENSITIVE on sparse levels:
/// instead of probing team x local_rows SPA slots, each emitting thread
/// collects the team's touched rows falling in its row stripe into
/// `gather`, sorts/dedups them, and probes only those (team probes per
/// emitted row — but zero scans of untouched rows).
struct ThreadStripe {
  std::vector<VecEntry> emit;
  std::vector<index_t> touched;
  std::vector<index_t> gather;
};

class DistWorkspace {
 public:
  /// The flat SpMSpV stage-2 accumulator, epoch opened over `rows`, and
  /// the list of local rows it touched in this epoch, cleared.
  StampedSlots& spa(std::size_t rows);
  std::vector<index_t>& spa_touched();
  /// The owner-merge accumulator, epoch opened over `n` slots, and the
  /// list of the slots it filled, cleared.
  StampedSlots& merge_slots(std::size_t n);
  std::vector<index_t>& merge_touched();

  /// Outgoing frontier buffer (the SET-refreshed entries a kernel
  /// publishes). Kept distinct from partial_scratch(): the published span
  /// must stay untouched while peers read it.
  std::vector<VecEntry>& frontier_scratch();
  /// Stage-2 output (per-row partial minima), cleared.
  std::vector<VecEntry>& partial_scratch();
  /// Gathered-frontier landing buffer, cleared.
  std::vector<VecEntry>& gather_scratch();
  /// Routed-exchange landing buffer, cleared.
  std::vector<VecEntry>& recv_scratch();
  /// Per-destination VecEntry routing buffers, sized to exactly `ranks`
  /// with each destination cleared (capacity retained). One table per call
  /// site, because one ordering level holds two at once:
  /// SORTPERM position scatter-back and the ordering level's label
  /// delivery.
  std::vector<std::vector<VecEntry>>& entry_route(std::size_t ranks);
  /// Owner routing of every SpMSpV expansion.
  std::vector<std::vector<VecEntry>>& fused_route(std::size_t ranks);
  /// One-shot redistribution staging: the relabeled matrix triples routed
  /// to their 1D owners, and the rhs/solution slab elements alongside them.
  /// Persisting these in the workspace is what lets a serving layer's
  /// steady-state cache-hit request (fingerprint -> redistribute -> solve,
  /// no ordering) run with ZERO workspace reallocations — the realloc
  /// ledger extends across requests.
  std::vector<std::vector<MatEntryV>>& mat_route(std::size_t ranks);
  std::vector<std::vector<VecEntryD>>& vecd_route(std::size_t ranks);
  /// Value-only staging of a plan hit (solver::SolvePlan): the matrix
  /// values, then the rhs values, one word each. The cold route that
  /// builds a plan reserves it to its own per-destination counts, so the
  /// hits that follow stage allocation-free from the first.
  std::vector<std::vector<double>>& value_route(std::size_t ranks);

  /// SORTPERM triple scratch (element array + counting-sort shadow),
  /// cleared, and its per-destination deal buffers (sortperm_bucket and the
  /// ordering level).
  std::vector<SortRec>& sort_scratch();
  std::vector<SortRec>& sort_tmp();
  std::vector<std::vector<SortRec>>& sort_route(std::size_t ranks);
  /// The ordering level's landing buffer for the SortRec triples dealt to
  /// this rank.
  std::vector<SortRec>& sort_recv_scratch();

  /// Per-thread SPA arms of the hybrid local multiply: `threads` stamped
  /// slot arrays, each epoch-opened over `rows` (so a thread cannot observe
  /// another thread's — or a previous call's — values). Growth of the arm
  /// count and of any arm's storage is realloc-counted; shrinking the
  /// thread count between calls retains the extra arms' storage and counts
  /// nothing, so a rank alternating hybrid and flat calls stays
  /// allocation-free after warm-up.
  std::span<StampedSlots> thread_spas(std::size_t threads, std::size_t rows);
  /// Per-thread stripes of the hybrid local multiply (emission, touched
  /// and gather buffers), each cleared with capacity retained; realloc
  /// accounting mirrors thread_spas.
  std::span<ThreadStripe> thread_stripes(std::size_t threads);

  /// Plain index scratch of exactly `n` elements, contents unspecified
  /// (callers overwrite every slot they read).
  std::vector<index_t>& index_scratch(std::size_t n);

  /// Zero-filled counter array of exactly `bins` slots for the counting
  /// passes (degree/bucket bins can reach O(n) on degree-skewed
  /// levels, so the storage must be reused across levels, not allocated
  /// per pass). Each checkout re-zeroes, so sequential passes may share it
  /// — but a second checkout invalidates the first's contents.
  std::vector<index_t>& counters(std::size_t bins);

  /// Number of capacity growths observed across all buffers — the warm-up
  /// metric: steady-state reuse must leave this constant. Growth performed
  /// by a caller's push_backs is detected at the buffer's next checkout.
  u64 reallocations() const { return reallocations_; }

 private:
  template <class V>
  V& checkout_cleared(V& v, std::size_t& last_cap) {
    if (v.capacity() != last_cap) {
      ++reallocations_;
      last_cap = v.capacity();
    }
    v.clear();
    return v;
  }

  template <class Route>
  Route& checkout_route(Route& route, std::size_t ranks,
                        std::size_t& last_cap) {
    route.resize(ranks);  // exact: collectives demand one buffer per rank
    std::size_t cap = route.capacity();
    for (auto& dest : route) {
      cap += dest.capacity();
      dest.clear();
    }
    if (cap != last_cap) {
      ++reallocations_;
      last_cap = cap;
    }
    return route;
  }

  StampedSlots spa_;
  std::vector<index_t> spa_touched_;
  StampedSlots merge_slots_;
  std::vector<index_t> merge_touched_;
  std::vector<VecEntry> frontier_;
  std::vector<VecEntry> partial_;
  std::vector<VecEntry> gather_;
  std::vector<VecEntry> recv_;
  std::vector<std::vector<VecEntry>> entry_route_;
  std::vector<std::vector<VecEntry>> fused_route_;
  std::vector<std::vector<MatEntryV>> mat_route_;
  std::vector<std::vector<VecEntryD>> vecd_route_;
  std::vector<std::vector<double>> value_route_;
  std::vector<SortRec> sort_;
  std::vector<SortRec> sort_tmp_;
  std::vector<std::vector<SortRec>> sort_route_;
  std::vector<index_t> index_;
  std::vector<index_t> counters_;
  std::vector<SortRec> sort_recv_;
  std::vector<StampedSlots> thread_spas_;
  std::vector<ThreadStripe> thread_stripes_;
  /// Per-arm capacity ledgers of the thread stripes (sum of the three
  /// buffers), so shrinking and re-growing the thread count between calls
  /// is not misread as a reallocation.
  std::vector<std::size_t> thread_stripe_caps_;
  std::size_t spa_touched_cap_ = 0, merge_touched_cap_ = 0,
              frontier_cap_ = 0,
              partial_cap_ = 0, gather_cap_ = 0, recv_cap_ = 0,
              entry_route_cap_ = 0,
              fused_route_cap_ = 0, mat_route_cap_ = 0, vecd_route_cap_ = 0,
              value_route_cap_ = 0,
              sort_cap_ = 0, sort_tmp_cap_ = 0,
              sort_route_cap_ = 0, index_cap_ = 0, counters_cap_ = 0,
              sort_recv_cap_ = 0;
  u64 reallocations_ = 0;
};

}  // namespace drcm::dist
