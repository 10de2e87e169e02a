// SORTPERM: rank the frontier by (parent label, degree, index) — the step
// that turns one BFS level into consecutive Cuthill-McKee labels.
//
// The paper's observation (Sec. IV-B): the parent labels of a level are
// exactly the contiguous range handed out for the previous level, so the
// primary key needs counting, not comparing. Both users of the counting
// sort — the fused ordering level (dist::cm_level_step) and the standalone
// sortperm_bucket — deal by ONE rule (sortperm_stripe_deal): each element
// goes to the sort worker whose PARENT-LABEL STRIPE holds its bucket.
// Workers then hold ascending label ranges, so the per-worker counts alone
// give every worker's offset, and each worker finishes with
// sortperm_stripe_sort: counting passes only, zero comparison sorts over
// the elements. The price is balance: a level whose elements share one
// parent sorts on one worker.
//
// sortperm_sample is the general sample sort kept as the HykSort-style
// comparison baseline (the perfbench dist.sortperm_sample_* probes time it
// and check that it agrees with sortperm_bucket).
#pragma once

#include <span>

#include "dist/dist_vector.hpp"
#include "dist/workspace.hpp"

namespace drcm::dist {

/// Ranks the entries of `x` (val = parent label in [label_lo, label_hi),
/// enforced) by (parent label, degrees[idx], idx). Returns a vector with
/// the same support whose values are the 0-based global positions.
/// Collective: the parent-stripe deal, one allgather of the per-worker
/// counts, and the scatter of positions back to the index owners (none
/// after the count exchange when the frontier is empty). Scratch comes
/// from `ws`, or from the grid's per-rank workspace when null.
DistSpVec sortperm_bucket(const DistSpVec& x, const DistDenseVec& degrees,
                          index_t label_lo, index_t label_hi, ProcGrid2D& grid,
                          DistWorkspace* ws = nullptr);

/// Same contract, implemented as a general distributed sample sort (local
/// sorts + splitter partition + merge): the comparison baseline.
DistSpVec sortperm_sample(const DistSpVec& x, const DistDenseVec& degrees,
                          ProcGrid2D& grid, DistWorkspace* ws = nullptr);

// ---------------------------------------------------------------------------
// The deal rule and the worker tail, shared by sortperm_bucket and the fused
// ordering level (dist::cm_level_step).

/// Deals every entry (val = parent label in [label_lo, label_hi), enforced;
/// throws CheckError otherwise) as a (bucket, degree, idx) triple to the
/// worker whose parent-label stripe holds its bucket: the nb buckets split
/// into deal.size() balanced contiguous stripes, ascending by worker.
void sortperm_stripe_deal(std::span<const VecEntry> entries,
                          const DistDenseVec& degrees, index_t label_lo,
                          index_t label_hi,
                          std::vector<std::vector<SortRec>>& deal);

/// Worker `w`'s side of the deal: replays the received per-source blocks
/// (`counts`, one per rank of the q x q grid) in (col, row) source order —
/// owned ranges ascend in that order, so the concatenation is globally
/// index-sorted — and counting-sorts them to (bucket, degree, idx) order,
/// zero comparison sorts. The t-th triple of the returned array
/// (ws.sort_scratch()) is the worker's t-th element of the level; `*units`
/// receives the compute to charge. Every received triple is range-checked
/// (bucket in w's stripe of the nb buckets, degree in [0, 3n + 3], idx in
/// [0, n); throws CheckError): the counting sort sizes its bins from these
/// fields. The degree field is a generic ranking key: plain degrees for
/// RCM, Sloan priorities (bounded by w1*(dmax+1) + w2*ecc < 3n + 3 with the
/// default weights) for the Sloan arm — still linear in n, so the counting
/// bins stay O(n).
template <class CountT>
std::vector<SortRec>& sortperm_stripe_sort(std::span<const SortRec> dealt,
                                           std::span<const CountT> counts,
                                           int w, int q, index_t nb, index_t n,
                                           DistWorkspace& ws, double* units);

}  // namespace drcm::dist
