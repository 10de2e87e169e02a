#include "dist/sortperm.hpp"

#include <algorithm>
#include <cmath>

namespace drcm::dist {

namespace {

bool rec_less(const SortRec& a, const SortRec& b) {
  if (a.bucket != b.bucket) return a.bucket < b.bucket;
  if (a.degree != b.degree) return a.degree < b.degree;
  return a.idx < b.idx;
}

/// Emits ranks held in dense slots (indexed by idx - lo) on the support of
/// `x`: the result is sorted by construction.
DistSpVec emit_from_slots(const DistSpVec& x, const std::vector<index_t>& slot) {
  auto out_entries = x.entries();
  for (auto& e : out_entries) {
    e.val = slot[static_cast<std::size_t>(e.idx - x.lo())];
  }
  return x.sibling(std::move(out_entries));
}

/// Routes (idx, rank) pairs to the index owners and emits the result on
/// the support of `x`, sorted by construction via dense local slots.
DistSpVec scatter_ranks_back(const DistSpVec& x,
                             const std::vector<std::vector<VecEntry>>& back,
                             mps::Comm& world, DistWorkspace& ws) {
  const auto got = world.alltoallv(back);
  DRCM_CHECK(got.size() == x.entries().size(),
             "every frontier entry must receive exactly one rank");
  auto& slot = ws.index_scratch(static_cast<std::size_t>(x.hi() - x.lo()));
  for (const auto& e : got) {
    // Receive-path range check (always on): a corrupted index must stop
    // here as a CheckError, not as an out-of-bounds slot write.
    DRCM_CHECK(e.idx >= x.lo() && e.idx < x.hi(), "rank routed to non-owner");
    slot[static_cast<std::size_t>(e.idx - x.lo())] = e.val;
  }
  world.charge_compute(static_cast<double>(2 * got.size()));
  return emit_from_slots(x, slot);
}

/// The sort worker that bucket `b` in [0, nb) is dealt to: the balanced
/// partition of [0, nb) into p contiguous stripes.
int worker_of(index_t b, index_t nb, int p) {
  const auto w = static_cast<int>((b * p) / nb);
  return w < p ? w : p - 1;
}

/// First bucket of worker `w`'s stripe: the inverse of worker_of (buckets
/// [stripe_lo(w), stripe_lo(w+1)) map to w).
index_t stripe_lo(int w, index_t nb, int p) {
  return (static_cast<index_t>(w) * nb + p - 1) / p;
}

/// Two stable counting passes (degree, then parent bucket, counters
/// restricted to [b_lo, b_hi)) over triples already in ascending-index
/// order: the triples end in final (bucket, degree, idx) order. The shadow
/// array comes from ws.sort_tmp().
void lsd_sort(std::vector<SortRec>& arr, index_t dmax, index_t b_lo,
              index_t b_hi, DistWorkspace& ws) {
  // Degree bins can reach O(n) on degree-skewed levels, so the counter
  // storage comes from the workspace (one buffer serves both passes: the
  // degree counters are dead before the bucket checkout re-zeroes it).
  auto& cnt = ws.counters(static_cast<std::size_t>(dmax) + 1);
  for (const auto& rec : arr) ++cnt[static_cast<std::size_t>(rec.degree)];
  index_t run = 0;
  for (auto& c : cnt) {
    const index_t c0 = c;
    c = run;
    run += c0;
  }
  auto& tmp = ws.sort_tmp();
  tmp.resize(arr.size());
  for (const auto& rec : arr) {
    tmp[static_cast<std::size_t>(cnt[static_cast<std::size_t>(rec.degree)]++)] = rec;
  }
  auto& bcnt = ws.counters(static_cast<std::size_t>(b_hi - b_lo));
  for (const auto& rec : tmp) ++bcnt[static_cast<std::size_t>(rec.bucket - b_lo)];
  run = 0;
  for (auto& c : bcnt) {
    const index_t c0 = c;
    c = run;
    run += c0;
  }
  for (const auto& rec : tmp) {
    arr[static_cast<std::size_t>(bcnt[static_cast<std::size_t>(rec.bucket - b_lo)]++)] = rec;
  }
}

}  // namespace

void sortperm_stripe_deal(std::span<const VecEntry> entries,
                          const DistDenseVec& degrees, index_t label_lo,
                          index_t label_hi,
                          std::vector<std::vector<SortRec>>& deal) {
  const index_t nb = label_hi - label_lo;
  const int p = static_cast<int>(deal.size());
  for (const auto& e : entries) {
    DRCM_CHECK(e.val >= label_lo && e.val < label_hi,
               "parent label outside the frontier's label range");
    const index_t b = e.val - label_lo;
    deal[static_cast<std::size_t>(worker_of(b, nb, p))].push_back(
        SortRec{b, degrees.get(e.idx), e.idx});
  }
}

template <class CountT>
std::vector<SortRec>& sortperm_stripe_sort(std::span<const SortRec> dealt,
                                           std::span<const CountT> counts,
                                           int w, int q, index_t nb, index_t n,
                                           DistWorkspace& ws, double* units) {
  const int p = q * q;
  DRCM_CHECK(static_cast<int>(counts.size()) == p,
             "replay needs one count per source rank");
  const index_t b_lo = stripe_lo(w, nb, p);
  const index_t b_hi = stripe_lo(w + 1, nb, p);
  // Receive-path range checks (always on): bucket and degree size the
  // counting-sort bins and idx becomes an owner-route index, so a
  // corrupted triple must throw here instead.
  for (const auto& rec : dealt) {
    DRCM_CHECK(rec.bucket >= b_lo && rec.bucket < b_hi,
               "dealt bucket outside the worker's parent-label stripe");
    DRCM_CHECK(rec.degree >= 0 && rec.degree <= 3 * n + 3 && rec.idx >= 0 &&
                   rec.idx < n,
               "received sort triple out of range");
  }
  // Per-source offsets from the workspace counter buffer (dead before the
  // sort's checkout) — the per-level hot path allocates nothing here.
  auto& offset = ws.counters(static_cast<std::size_t>(p) + 1);
  for (int s = 0; s < p; ++s) {
    offset[static_cast<std::size_t>(s) + 1] =
        offset[static_cast<std::size_t>(s)] +
        static_cast<index_t>(counts[static_cast<std::size_t>(s)]);
  }
  auto& arr = ws.sort_scratch();
  arr.reserve(dealt.size());
  index_t dmax = 0, b_min = 0, b_max = -1;
  for (int c = 0; c < q; ++c) {
    for (int r = 0; r < q; ++r) {
      const auto s = static_cast<std::size_t>(r * q + c);
      for (auto i = offset[s]; i < offset[s + 1]; ++i) {
        const auto& rec = dealt[static_cast<std::size_t>(i)];
        if (arr.empty()) {
          b_min = rec.bucket;
          b_max = rec.bucket;
        } else {
          b_min = std::min(b_min, rec.bucket);
          b_max = std::max(b_max, rec.bucket);
        }
        dmax = std::max(dmax, rec.degree);
        arr.push_back(rec);
      }
    }
  }
  if (!arr.empty()) lsd_sort(arr, dmax, b_min, b_max + 1, ws);
  *units = static_cast<double>(4 * arr.size()) +
           static_cast<double>((arr.empty() ? 0 : b_max - b_min + 1) +
                               dmax + 1);
  return arr;
}

template std::vector<SortRec>& sortperm_stripe_sort<std::int64_t>(
    std::span<const SortRec>, std::span<const std::int64_t>, int, int,
    index_t, index_t, DistWorkspace&, double*);
template std::vector<SortRec>& sortperm_stripe_sort<std::uint64_t>(
    std::span<const SortRec>, std::span<const std::uint64_t>, int, int,
    index_t, index_t, DistWorkspace&, double*);

DistSpVec sortperm_bucket(const DistSpVec& x, const DistDenseVec& degrees,
                          index_t label_lo, index_t label_hi,
                          ProcGrid2D& grid, DistWorkspace* ws) {
  DRCM_CHECK(x.dist() == degrees.dist(),
             "frontier and degree vector must share one distribution");
  DRCM_CHECK(label_hi > label_lo, "empty parent label range");
  auto& world = grid.world();
  DistWorkspace& w = ws ? *ws : grid.workspace();
  const int p = world.size();
  const auto& dist = x.dist();
  const index_t n = dist.n();
  // Workers hold ascending label ranges, so a worker's count prefix is its
  // offset into the level.
  auto& deal = w.sort_route(static_cast<std::size_t>(p));
  sortperm_stripe_deal(x.entries(), degrees, label_lo, label_hi, deal);
  world.charge_compute(static_cast<double>(x.entries().size()));
  std::vector<std::int64_t> dealt_counts;
  const auto dealt = world.alltoallv(deal, &dealt_counts);

  // Every worker's count, for my offset and the level total. Receive-path
  // checks (always on): the counts arrived over the wire and become label
  // offsets.
  const auto counts = world.allgather(static_cast<index_t>(dealt.size()));
  index_t offset = 0;
  index_t total = 0;
  for (int r = 0; r < p; ++r) {
    const index_t c = counts[static_cast<std::size_t>(r)];
    DRCM_CHECK(c >= 0 && c <= n, "worker count outside [0, n]");
    if (r < world.rank()) offset += c;
    total += c;
  }
  DRCM_CHECK(counts[static_cast<std::size_t>(world.rank())] ==
                 static_cast<index_t>(dealt.size()),
             "worker count does not match its dealt triples");
  DRCM_CHECK(total <= n, "worker offset outside the level");
  if (total == 0) return x.sibling({});

  // My t-th sorted triple sits at global position offset + t.
  double units = 0.0;
  auto& arr = sortperm_stripe_sort(
      std::span<const SortRec>(dealt),
      std::span<const std::int64_t>(dealt_counts), world.rank(), grid.q(),
      label_hi - label_lo, n, w, &units);
  world.charge_compute(units);

  // Hand each element its global position and route it home.
  auto& back = w.entry_route(static_cast<std::size_t>(p));
  const CutTable owners(dist);
  for (std::size_t t = 0; t < arr.size(); ++t) {
    back[static_cast<std::size_t>(owners.owner_rank(arr[t].idx))].push_back(
        VecEntry{arr[t].idx, offset + static_cast<index_t>(t)});
  }
  return scatter_ranks_back(x, back, world, w);
}

DistSpVec sortperm_sample(const DistSpVec& x, const DistDenseVec& degrees,
                          ProcGrid2D& grid, DistWorkspace* ws) {
  DRCM_CHECK(x.dist() == degrees.dist(),
             "frontier and degree vector must share one distribution");
  auto& world = grid.world();
  DistWorkspace& w = ws ? *ws : grid.workspace();
  const int p = world.size();
  const auto& dist = x.dist();

  auto& local = w.sort_scratch();
  for (const auto& e : x.entries()) {
    local.push_back(SortRec{e.val, degrees.get(e.idx), e.idx});
  }
  std::sort(local.begin(), local.end(), rec_less);

  if (p == 1) {
    // Degenerate single-rank grid: the local sort is the global sort.
    auto& slot = w.index_scratch(static_cast<std::size_t>(x.hi() - x.lo()));
    for (std::size_t t = 0; t < local.size(); ++t) {
      slot[static_cast<std::size_t>(local[t].idx - x.lo())] =
          static_cast<index_t>(t);
    }
    const double ml = static_cast<double>(local.size());
    world.charge_compute(ml * std::log2(ml + 2) + ml);
    return emit_from_slots(x, slot);
  }

  // Regular sampling: one sample per destination stratum.
  std::vector<SortRec> samples;
  for (int i = 0; i < p && !local.empty(); ++i) {
    const auto pos = (static_cast<std::size_t>(i) * local.size() +
                      local.size() / 2) / static_cast<std::size_t>(p);
    samples.push_back(local[pos]);
  }
  auto all_samples = world.allgatherv(std::span<const SortRec>(samples));
  std::sort(all_samples.begin(), all_samples.end(), rec_less);

  // p-1 splitters; destination d holds (splitter[d-1], splitter[d]].
  std::vector<SortRec> splitters;
  for (int d = 0; d + 1 < p && !all_samples.empty(); ++d) {
    splitters.push_back(
        all_samples[(static_cast<std::size_t>(d) + 1) * all_samples.size() /
                    static_cast<std::size_t>(p)]);
  }
  auto& send = w.sort_route(static_cast<std::size_t>(p));
  {
    std::size_t d = 0;
    for (const auto& rec : local) {
      while (d < splitters.size() && rec_less(splitters[d], rec)) ++d;
      send[d].push_back(rec);
    }
  }
  auto mine = world.alltoallv(send);
  std::sort(mine.begin(), mine.end(), rec_less);
  const auto base = world.exscan_sum(static_cast<index_t>(mine.size()));

  const double ml = static_cast<double>(local.size());
  const double mr = static_cast<double>(mine.size());
  world.charge_compute(ml * std::log2(ml + 2) + mr * std::log2(mr + 2));

  auto& back = w.entry_route(static_cast<std::size_t>(p));
  const CutTable owners(dist);
  for (std::size_t t = 0; t < mine.size(); ++t) {
    // Receive-path range check (always on): `mine` arrived over the wire
    // and its indices become owner-route positions.
    DRCM_CHECK(mine[t].idx >= 0 && mine[t].idx < dist.n(),
               "received sort element index out of range");
    back[static_cast<std::size_t>(owners.owner_rank(mine[t].idx))].push_back(
        VecEntry{mine[t].idx, base + static_cast<index_t>(t)});
  }
  return scatter_ranks_back(x, back, world, w);
}

}  // namespace drcm::dist
