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

/// One stable counting pass of histogram cells from `src` to `dst` keyed by
/// `key` (values in [0, bins)); counters come from the workspace so the
/// steady-state level loop allocates nothing per pass.
template <class KeyFn>
void cell_counting_pass(const std::vector<SortHistCell>& src,
                        std::vector<SortHistCell>& dst, std::size_t bins,
                        DistWorkspace& ws, KeyFn key) {
  auto& cnt = ws.counters(bins);
  for (const auto& c : src) ++cnt[static_cast<std::size_t>(key(c))];
  index_t run = 0;
  for (auto& v : cnt) {
    const index_t v0 = v;
    v = run;
    run += v0;
  }
  for (const auto& c : src) {
    dst[static_cast<std::size_t>(cnt[static_cast<std::size_t>(key(c))]++)] = c;
  }
}

}  // namespace

void sortperm_lsd_sort(std::vector<SortRec>& arr, index_t dmax, index_t b_lo,
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

void sortperm_local_hist(std::span<const VecEntry> entries,
                         const DistDenseVec& degrees, index_t label_lo,
                         index_t label_hi, index_t block, DistWorkspace& ws,
                         std::vector<SortHistCell>& hist,
                         std::vector<index_t>& entry_cell) {
  entry_cell.resize(entries.size());
  if (entries.empty()) return;
  // (bucket, degree, entry ordinal) triples, then the two counting passes
  // shared with the element sort: recs end up (bucket, degree)-grouped.
  auto& recs = ws.hist_recs();
  recs.reserve(entries.size());
  index_t dmax = 0;
  index_t b_min = label_hi - label_lo;
  index_t b_max = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    DRCM_CHECK(e.val >= label_lo && e.val < label_hi,
               "parent label outside the frontier's label range");
    const index_t b = e.val - label_lo;
    const index_t d = degrees.get(e.idx);
    dmax = std::max(dmax, d);
    b_min = std::min(b_min, b);
    b_max = std::max(b_max, b);
    recs.push_back(SortRec{b, d, static_cast<index_t>(i)});
  }
  sortperm_lsd_sort(recs, dmax, b_min, b_max + 1, ws);
  for (const auto& rec : recs) {
    if (hist.empty() || hist.back().bucket != rec.bucket ||
        hist.back().degree != rec.degree) {
      hist.push_back(SortHistCell{rec.bucket, rec.degree, block, 0});
    }
    hist.back().count += 1;
    entry_cell[static_cast<std::size_t>(rec.idx)] =
        static_cast<index_t>(hist.size()) - 1;
  }
}

void sortperm_pack_cells(std::span<const SortHistCell> cells, index_t block,
                         std::vector<index_t>& out) {
  if (cells.empty()) return;
  out.push_back(block);
  const std::size_t nwords_at = out.size();
  out.push_back(0);
  std::size_t i = 0;
  while (i < cells.size()) {
    std::size_t j = i;
    index_t multi = 0;
    index_t single = 0;
    while (j < cells.size() && cells[j].bucket == cells[i].bucket) {
      DRCM_DCHECK(cells[j].block == block && cells[j].count >= 1,
                  "packing a foreign or empty cell");
      (cells[j].count == 1 ? single : multi) += 1;
      ++j;
    }
    if (multi > 0) {
      out.push_back(cells[i].bucket);
      out.push_back(multi);
      for (std::size_t t = i; t < j; ++t) {
        if (cells[t].count != 1) {
          out.push_back(cells[t].degree);
          out.push_back(cells[t].count);
        }
      }
    }
    if (single > 0) {
      out.push_back(cells[i].bucket);
      out.push_back(-single);
      for (std::size_t t = i; t < j; ++t) {
        if (cells[t].count == 1) out.push_back(cells[t].degree);
      }
    }
    i = j;
  }
  out[nwords_at] = static_cast<index_t>(out.size() - nwords_at - 1);
}

void sortperm_unpack_cells(std::span<const index_t> words,
                           std::vector<SortHistCell>& out) {
  std::size_t i = 0;
  while (i < words.size()) {
    DRCM_CHECK(i + 2 <= words.size(), "truncated packed histogram header");
    const index_t block = words[i];
    const index_t nwords = words[i + 1];
    i += 2;
    DRCM_CHECK(nwords >= 0 &&
                   static_cast<std::size_t>(nwords) <= words.size() - i,
               "packed histogram payload overruns the stream");
    const std::size_t end = i + static_cast<std::size_t>(nwords);
    while (i < end) {
      DRCM_CHECK(end - i >= 2, "truncated packed histogram group");
      const index_t bucket = words[i];
      const index_t k = words[i + 1];
      i += 2;
      DRCM_CHECK(k != 0, "empty packed histogram group");
      if (k > 0) {
        DRCM_CHECK(static_cast<std::size_t>(k) <= (end - i) / 2,
                   "truncated packed histogram pair group");
        for (index_t g = 0; g < k; ++g) {
          out.push_back(SortHistCell{bucket, words[i], block, words[i + 1]});
          i += 2;
        }
      } else {
        // Compare without negating k first: a corrupted most-negative k
        // must fail the check, not overflow on -k.
        DRCM_CHECK(k >= -static_cast<index_t>(end - i),
                   "truncated packed histogram singleton group");
        for (index_t g = 0; g < -k; ++g) {
          out.push_back(SortHistCell{bucket, words[i], block, 1});
          i += 1;
        }
      }
    }
  }
}

SortPlan sortperm_plan(std::span<const SortHistCell> cells, int p, index_t nb,
                       index_t n, DistWorkspace& ws) {
  // Receive-path range checks (always on): the cell table was exchanged
  // over the wire, and every field below becomes a counting-pass bin index
  // or a bin count — a corrupted cell must throw here, not index counters
  // out of bounds or size them absurdly. The "degree" field is a generic
  // ranking key: plain degrees for RCM, Sloan priorities (bounded by
  // w1*(dmax+1) + w2*ecc < 3n + 3 with the default weights) for the Sloan
  // arm — still linear in n, so the counting bins stay O(n).
  for (const auto& c : cells) {
    DRCM_CHECK(c.block >= 0 && c.block < p && c.bucket >= 0 && c.bucket < nb &&
                   c.degree >= 0 && c.degree <= 3 * n + 3 && c.count >= 0,
               "received histogram cell out of range");
  }
  auto& table = ws.hist_table();
  auto& shadow = ws.hist_shadow();
  shadow.assign(cells.begin(), cells.end());
  table.resize(cells.size());
  index_t dmax = 0;
  for (const auto& c : cells) dmax = std::max(dmax, c.degree);
  // Stable LSD to (bucket, degree, block) order: least-significant key
  // first. Input cells arrive rank-concatenated (each rank's sub-table
  // already (bucket, degree)-sorted), but the passes assume nothing.
  cell_counting_pass(shadow, table, static_cast<std::size_t>(p), ws,
                     [](const SortHistCell& c) { return c.block; });
  cell_counting_pass(table, shadow, static_cast<std::size_t>(dmax) + 1, ws,
                     [](const SortHistCell& c) { return c.degree; });
  cell_counting_pass(shadow, table, static_cast<std::size_t>(nb), ws,
                     [](const SortHistCell& c) { return c.bucket; });
  auto& start = ws.hist_start();
  start.reserve(table.size());
  index_t run = 0;
  for (const auto& c : table) {
    start.push_back(run);
    run += c.count;
  }
  return SortPlan{std::span<const SortHistCell>(table),
                  std::span<const index_t>(start), run};
}

void sortperm_my_starts(const SortPlan& plan, index_t block,
                        std::vector<index_t>& out) {
  // Filtering the (bucket, degree, block)-sorted table to one block yields
  // that rank's cells in (bucket, degree) order — the local hist order.
  for (std::size_t t = 0; t < plan.table.size(); ++t) {
    if (plan.table[t].block == block) out.push_back(plan.start[t]);
  }
}

template <class CountT>
std::vector<SortRec>& sortperm_replay(std::span<const SortRec> recv,
                                      std::span<const CountT> counts, int q,
                                      index_t stripe_lo, index_t stripe_hi,
                                      index_t n, DistWorkspace& ws,
                                      index_t* dmax, index_t* b_min,
                                      index_t* b_max) {
  const int p = q * q;
  DRCM_CHECK(static_cast<int>(counts.size()) == p,
             "replay needs one count per source rank");
  // Receive-path range checks (always on): bucket and degree size the
  // counting-sort bins downstream and idx becomes an owner-route index, so
  // a corrupted triple must throw here instead. The degree field admits
  // any linear ranking key (Sloan priorities reach ~3n; see sortperm_plan).
  for (const auto& rec : recv) {
    DRCM_CHECK(rec.bucket >= stripe_lo && rec.bucket < stripe_hi,
               "dealt bucket outside the worker's parent-label stripe");
    DRCM_CHECK(rec.degree >= 0 && rec.degree <= 3 * n + 3 && rec.idx >= 0 &&
                   rec.idx < n,
               "received sort triple out of range");
  }
  // Per-source offsets from the workspace counter buffer (dead before any
  // later checkout) — the per-level hot path allocates nothing here.
  auto& offset = ws.counters(static_cast<std::size_t>(p) + 1);
  for (int s = 0; s < p; ++s) {
    offset[static_cast<std::size_t>(s) + 1] =
        offset[static_cast<std::size_t>(s)] +
        static_cast<index_t>(counts[static_cast<std::size_t>(s)]);
  }
  auto& arr = ws.sort_scratch();
  arr.reserve(recv.size());
  *dmax = 0;
  *b_min = 0;
  *b_max = -1;
  for (int c = 0; c < q; ++c) {
    for (int r = 0; r < q; ++r) {
      const auto s = static_cast<std::size_t>(r * q + c);
      for (auto i = offset[s]; i < offset[s + 1]; ++i) {
        const auto& rec = recv[static_cast<std::size_t>(i)];
        if (arr.empty()) {
          *b_min = rec.bucket;
          *b_max = rec.bucket;
        } else {
          *b_min = std::min(*b_min, rec.bucket);
          *b_max = std::max(*b_max, rec.bucket);
        }
        *dmax = std::max(*dmax, rec.degree);
        arr.push_back(rec);
      }
    }
  }
  return arr;
}

template std::vector<SortRec>& sortperm_replay<std::int64_t>(
    std::span<const SortRec>, std::span<const std::int64_t>, int, index_t,
    index_t, index_t, DistWorkspace&, index_t*, index_t*, index_t*);
template std::vector<SortRec>& sortperm_replay<std::uint64_t>(
    std::span<const SortRec>, std::span<const std::uint64_t>, int, index_t,
    index_t, index_t, DistWorkspace&, index_t*, index_t*, index_t*);

void sortperm_deal(std::span<const VecEntry> entries,
                   const DistDenseVec& degrees, index_t label_lo,
                   std::span<const index_t> entry_cell,
                   std::vector<index_t>& mine, index_t total, int p,
                   std::vector<std::vector<SortRec>>& route) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    const index_t at = mine[static_cast<std::size_t>(entry_cell[i])]++;
    // A cell table corrupted in transit (but field-wise in range) can hand
    // out positions past the element total; the worker map is only defined
    // on [0, total).
    DRCM_CHECK(at >= 0 && at < total, "dealt position outside [0, total)");
    route[static_cast<std::size_t>(sortperm_worker_of(at, total, p))]
        .push_back(SortRec{e.val - label_lo, degrees.get(e.idx), e.idx});
  }
}

std::vector<SortRec>& sortperm_worker_sort(std::span<const SortRec> dealt,
                                           std::span<const std::int64_t> counts,
                                           int q, index_t total, index_t nb,
                                           index_t n, mps::Comm& world,
                                           DistWorkspace& ws,
                                           index_t* stripe_lo) {
  const int p = q * q;
  index_t dmax = 0, b_min = 0, b_max = -1;
  auto& arr =
      sortperm_replay(dealt, counts, q, 0, nb, n, ws, &dmax, &b_min, &b_max);
  if (!arr.empty()) sortperm_lsd_sort(arr, dmax, b_min, b_max + 1, ws);
  *stripe_lo = sortperm_stripe_lo(world.rank(), total, p);
  DRCM_CHECK(static_cast<index_t>(arr.size()) ==
                 sortperm_stripe_lo(world.rank() + 1, total, p) - *stripe_lo,
             "worker stripe does not match the dealt position range");
  world.charge_compute(
      static_cast<double>(4 * arr.size()) +
      static_cast<double>((arr.empty() ? 0 : b_max - b_min + 1) + dmax + 1));
  return arr;
}

DistSpVec sortperm_bucket(const DistSpVec& x, const DistDenseVec& degrees,
                          index_t label_lo, index_t label_hi,
                          ProcGrid2D& grid, DistWorkspace* ws,
                          index_t* stripe_out) {
  DRCM_CHECK(x.dist() == degrees.dist(),
             "frontier and degree vector must share one distribution");
  DRCM_CHECK(label_hi > label_lo, "empty parent label range");
  auto& world = grid.world();
  DistWorkspace& w = ws ? *ws : grid.workspace();
  const int p = world.size();
  const int q = grid.q();
  const auto& dist = x.dist();
  const index_t nb = label_hi - label_lo;
  if (stripe_out) *stripe_out = 0;

  if (p == 1) {
    // Degenerate single-rank grid: the entries are already the whole
    // frontier in index order — two counting passes finish the job with
    // no collectives.
    auto& arr = w.sort_scratch();
    arr.reserve(x.entries().size());
    index_t dmax = 0;
    for (const auto& e : x.entries()) {
      DRCM_CHECK(e.val >= label_lo && e.val < label_hi,
                 "parent label outside the frontier's label range");
      const index_t d = degrees.get(e.idx);
      dmax = std::max(dmax, d);
      arr.push_back(SortRec{e.val - label_lo, d, e.idx});
    }
    sortperm_lsd_sort(arr, dmax, 0, nb, w);
    if (stripe_out) *stripe_out = static_cast<index_t>(arr.size());
    auto& slot = w.index_scratch(static_cast<std::size_t>(x.hi() - x.lo()));
    for (std::size_t t = 0; t < arr.size(); ++t) {
      slot[static_cast<std::size_t>(arr[t].idx - x.lo())] =
          static_cast<index_t>(t);
    }
    world.charge_compute(static_cast<double>(4 * arr.size()) +
                         static_cast<double>(nb + dmax + 1));
    return emit_from_slots(x, slot);
  }

  // Local (bucket, degree) histogram stamped with my owned-range block
  // index (validates the contiguous-range precondition).
  const index_t my_block = block_index(grid.row(), grid.col(), q);
  auto& hist = w.hist_cells();
  auto& entry_cell = w.entry_cell();
  sortperm_local_hist(x.entries(), degrees, label_lo, label_hi, my_block, w,
                      hist, entry_cell);

  // Exchange the cells; every rank derives the identical global plan —
  // exact start positions for every (bucket, degree, block) cell. The
  // carry rides the wire two-level packed (sortperm_pack_cells): ~1 word
  // per cell on degree-diverse levels instead of the naive 4-word (bucket,
  // degree, block, count) cells. The streams are self-delimiting, so the
  // rank-concatenated allgather decodes with wire-structure checks
  // (sortperm_unpack_cells) and field range checks (sortperm_plan).
  auto& packed = w.carry_words();
  sortperm_pack_cells(std::span<const SortHistCell>(hist), my_block, packed);
  const auto all_words = world.allgatherv(std::span<const index_t>(packed));
  auto& all = w.hist_all();
  sortperm_unpack_cells(std::span<const index_t>(all_words), all);
  const SortPlan plan =
      sortperm_plan(std::span<const SortHistCell>(all), p, nb, dist.n(), w);
  world.charge_compute(static_cast<double>(2 * x.entries().size()) +
                       static_cast<double>(packed.size()) +
                       static_cast<double>(4 * all.size()) +
                       static_cast<double>(nb));
  if (plan.total == 0) {
    return x.sibling({});
  }

  // Deal every element to its own position's worker: my j-th element of a
  // cell (consumed in index order) sits at exactly cell start + j, so the
  // cursor in `mine` hands out final positions element by element. Stripes
  // are the balanced partition of [0, total) — a whole level concentrated
  // in one cell still spreads evenly (the ROADMAP worker-stripe fix).
  auto& mine = w.my_starts();
  sortperm_my_starts(plan, my_block, mine);
  DRCM_CHECK(mine.size() == hist.size(), "plan misses local cells");
  auto& send = w.sort_route(static_cast<std::size_t>(p));
  sortperm_deal(std::span<const VecEntry>(x.entries()), degrees, label_lo,
                std::span<const index_t>(entry_cell), mine, plan.total, p,
                send);
  std::vector<std::int64_t> recv_counts;
  const auto recv = world.alltoallv(send, &recv_counts);

  // Sort my stripe to (bucket, degree, idx) order — which IS global
  // position order, so my t-th element sits at stripe start + t.
  index_t stripe_lo = 0;
  auto& arr = sortperm_worker_sort(std::span<const SortRec>(recv),
                                   std::span<const std::int64_t>(recv_counts),
                                   q, plan.total, nb, dist.n(), world, w,
                                   &stripe_lo);
  if (stripe_out) *stripe_out = static_cast<index_t>(arr.size());

  // Hand each element its global position and route it home.
  auto& back = w.entry_route(static_cast<std::size_t>(p));
  const CutTable owners(dist);
  for (std::size_t t = 0; t < arr.size(); ++t) {
    back[static_cast<std::size_t>(owners.owner_rank(arr[t].idx))].push_back(
        VecEntry{arr[t].idx, stripe_lo + static_cast<index_t>(t)});
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
