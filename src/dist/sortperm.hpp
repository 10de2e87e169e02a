// SORTPERM: rank the frontier by (parent label, degree, index) — the step
// that turns one BFS level into consecutive Cuthill-McKee labels.
//
// The paper's observation (Sec. IV-B): the parent labels of a level are
// exactly the contiguous range handed out for the previous level, so the
// primary key needs counting, not comparing. sortperm_bucket exploits this
// with counting passes only (an LSD radix over the key) and performs zero
// comparison sorts over the elements end to end. sortperm_sample is the
// general sample sort kept as the HykSort-style comparison baseline
// (micro_sort and the perfbench dist.sortperm_sample_* probes time it).
//
// The fused ordering level (dist::cm_level_step) needs none of the
// histogram machinery below. It deals each element straight to the worker
// whose PARENT-LABEL STRIPE holds its bucket (sortperm_worker_of over the
// nb buckets): workers then hold ascending label ranges, so the per-worker
// deal counts alone give every worker's label offset, and each worker
// finishes with sortperm_replay + sortperm_lsd_sort. The price is balance:
// a level whose elements share one parent sorts on one worker.
//
// sortperm_bucket, the standalone kernel, instead balances its workers by
// POSITION, through histogram-cell helpers it alone uses: each rank
// publishes its sparse (bucket, degree) histogram stamped with its OWNED-
// RANGE BLOCK index. Since (bucket, degree, block) refines the final
// (bucket, degree, index) order, one exchange of these cells lets every
// rank compute the exact global start of every cell. A cell's elements all
// live on ONE owner in index order, so the owner also knows each element's
// exact global position (cell start + within-cell ordinal) at deal time:
// elements are dealt to sort workers POSITION-proportionally, making the
// worker stripes perfectly balanced (±1 element) no matter how skewed the
// bucket/degree/ownership structure — one giant bucket, or a whole level
// concentrated in a single cell, spreads evenly (the ROADMAP worker-stripe
// fix, with no offset-correction round). A worker's received elements,
// sorted to (bucket, degree, index) order, occupy exactly its contiguous
// position stripe, so final positions are stripe start + ordinal.
#pragma once

#include <span>

#include "dist/dist_vector.hpp"
#include "dist/workspace.hpp"

namespace drcm::dist {

/// Ranks the entries of `x` (val = parent label in [label_lo, label_hi),
/// enforced) by (parent label, degrees[idx], idx). Returns a vector with
/// the same support whose values are the 0-based global positions.
/// Collective; no comparison sort anywhere on the element path (the
/// histogram metadata is aggregated with counting passes too). Scratch
/// comes from `ws`, or from the grid's per-rank workspace when null.
/// `stripe_out` (optional) receives the number of elements this rank
/// sorted as a worker — the load-balance quantity the star-graph stripe
/// regression test pins.
DistSpVec sortperm_bucket(const DistSpVec& x, const DistDenseVec& degrees,
                          index_t label_lo, index_t label_hi, ProcGrid2D& grid,
                          DistWorkspace* ws = nullptr,
                          index_t* stripe_out = nullptr);

/// Same contract, implemented as a general distributed sample sort (local
/// sorts + splitter partition + merge): the comparison baseline.
DistSpVec sortperm_sample(const DistSpVec& x, const DistDenseVec& degrees,
                          ProcGrid2D& grid, DistWorkspace* ws = nullptr);

// ---------------------------------------------------------------------------
// Counting-sort building blocks. The histogram helpers (sortperm_local_hist
// through sortperm_deal) serve sortperm_bucket alone; sortperm_worker_of,
// sortperm_stripe_lo, sortperm_lsd_sort and sortperm_replay are shared with
// the fused ordering-level kernel (dist::cm_level_step). All take scratch
// from `ws`.

/// Exact global positions of a sorted cell table plus the element total.
/// The spans alias workspace buffers (hist_table / hist_start): valid until
/// their next checkout.
struct SortPlan {
  std::span<const SortHistCell> table;  ///< (bucket, degree, block) ascending
  std::span<const index_t> start;      ///< global start position per cell
  index_t total = 0;                   ///< total elements across all cells
};

/// Block index of the rank at grid position (row, col): the position of its
/// owned index range in global index order (chunks ascend by column, sub-
/// chunks by row).
inline index_t block_index(int row, int col, int q) {
  return static_cast<index_t>(col) * q + row;
}

/// Builds this rank's sparse (bucket, degree) histogram over `entries`
/// (values must be parent labels in [label_lo, label_hi); throws
/// CheckError otherwise) stamped with `block`, in (bucket, degree) order,
/// and records each entry's cell ordinal in `entry_cell` (indexed by entry
/// position). Counting passes only. `hist` and `entry_cell` are typically
/// ws.hist_cells() / ws.entry_cell().
void sortperm_local_hist(std::span<const VecEntry> entries,
                         const DistDenseVec& degrees, index_t label_lo,
                         index_t label_hi, index_t block, DistWorkspace& ws,
                         std::vector<SortHistCell>& hist,
                         std::vector<index_t>& entry_cell);

/// Two-level compaction of a local histogram for sortperm_bucket's
/// histogram allgatherv. The naive carry is 4 words per cell ((bucket, degree,
/// block, count)), and on degree-diverse levels — where most cells hold a
/// single element — the carried volume approaches 4x the ELEMENT volume,
/// dwarfing the 3-word element deal it rides ahead of. The packed stream
/// factors both repeated fields out:
///
///   stream  := [block, nwords] payload            (omitted when no cells)
///   payload := group...                           (nwords words total)
///   group   := [bucket,  k] (degree, count) x k   (cells with count > 1)
///            | [bucket, -k] degree x k            (k singleton cells)
///
/// Degree-diverse cells cost ~1 word instead of 4; the stream is never
/// larger than the naive cells plus one 2-word header. Each rank's stream
/// is self-delimiting (the header carries its word count), so the
/// rank-concatenated allgather decodes without per-source counts. Cells
/// must be in local-histogram order (equal buckets adjacent, every count
/// >= 1, all stamped with `block`) — sortperm_local_hist's output.
void sortperm_pack_cells(std::span<const SortHistCell> cells, index_t block,
                         std::vector<index_t>& out);

/// Decodes a concatenation of packed streams back into histogram cells
/// (appended to `out`). The words arrived over the wire, so the stream
/// structure is checked as it is parsed (truncated header/group/payload,
/// empty group: CheckError); field RANGES are re-checked by sortperm_plan,
/// which every decoded table feeds.
void sortperm_unpack_cells(std::span<const index_t> words,
                           std::vector<SortHistCell>& out);

/// Sorts the concatenation of every rank's histogram cells to (bucket,
/// degree, block) order via three counting passes and prefix-sums the
/// counts: the deterministic global plan every rank derives identically.
/// The cells arrived over the wire, so each field is range-checked first
/// (block in [0, p), bucket in [0, nb), degree in [0, n], count >= 0;
/// throws CheckError) — the counting passes index counters by these fields.
SortPlan sortperm_plan(std::span<const SortHistCell> cells, int p, index_t nb,
                       index_t n, DistWorkspace& ws);

/// Extracts, aligned with this rank's local histogram (its cells in
/// (bucket, degree) order), the global start position of each cell.
/// `out` is typically ws.my_starts(); the deal loop advances each slot as
/// it consumes the cell's elements in index order, turning it into a
/// running next-position cursor.
void sortperm_my_starts(const SortPlan& plan, index_t block,
                        std::vector<index_t>& out);

/// The sort worker that key `at` in [0, total) is dealt to: the balanced
/// partition of [0, total) into p contiguous stripes. sortperm_bucket
/// deals by global position (total = elements); the fused ordering level
/// by parent bucket (total = nb).
inline int sortperm_worker_of(index_t at, index_t total, int p) {
  const auto w = static_cast<int>((at * p) / total);
  return w < p ? w : p - 1;
}

/// First key of worker `w`'s stripe: the inverse of sortperm_worker_of
/// (keys [stripe_lo(w), stripe_lo(w+1)) map to w).
inline index_t sortperm_stripe_lo(int w, index_t total, int p) {
  return (static_cast<index_t>(w) * total + p - 1) / p;
}

/// Two stable counting passes (degree, then parent bucket, counters
/// restricted to [b_lo, b_hi)) over triples already in ascending-index
/// order: the triples end in final (bucket, degree, idx) order. Zero
/// comparison sorts; the shadow array comes from ws.sort_tmp().
void sortperm_lsd_sort(std::vector<SortRec>& arr, index_t dmax, index_t b_lo,
                       index_t b_hi, DistWorkspace& ws);

/// Replays per-source received blocks in (col, row) source order into
/// ws.sort_scratch() — owned ranges ascend in that order, so the
/// concatenation is globally index-sorted, the stability baseline the
/// counting passes preserve. Returns the array; reports the degree maximum
/// and bucket range of the received elements. Every received triple is
/// range-checked (bucket in this worker's stripe [stripe_lo, stripe_hi),
/// degree in [0, 3n + 3], idx in [0, n); throws CheckError): the counting
/// sort sizes its bins from these fields.
template <class CountT>
std::vector<SortRec>& sortperm_replay(std::span<const SortRec> recv,
                                      std::span<const CountT> counts, int q,
                                      index_t stripe_lo, index_t stripe_hi,
                                      index_t n, DistWorkspace& ws,
                                      index_t* dmax, index_t* b_min,
                                      index_t* b_max);

/// sortperm_bucket's deal loop: hands every entry its exact global
/// position off the cursor in `mine` (advancing it) and pushes the
/// (bucket, degree, idx) triple to its position's worker.
void sortperm_deal(std::span<const VecEntry> entries,
                   const DistDenseVec& degrees, index_t label_lo,
                   std::span<const index_t> entry_cell,
                   std::vector<index_t>& mine, index_t total, int p,
                   std::vector<std::vector<SortRec>>& route);

/// sortperm_bucket's worker tail: replays the dealt elements to global
/// index order, counting-sorts to (bucket, degree, idx) — which IS global
/// position order under position-proportional dealing — and checks the
/// stripe size matches this worker's dealt position range (throws
/// CheckError otherwise). Returns the sorted array (ws.sort_scratch(), so
/// the t-th element's global position is *stripe_lo + t) and charges the
/// replay/sort work to `world`.
std::vector<SortRec>& sortperm_worker_sort(std::span<const SortRec> dealt,
                                           std::span<const std::int64_t> counts,
                                           int q, index_t total, index_t nb,
                                           index_t n, mps::Comm& world,
                                           DistWorkspace& ws,
                                           index_t* stripe_lo);

}  // namespace drcm::dist
