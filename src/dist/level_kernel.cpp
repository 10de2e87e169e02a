#include "dist/level_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "common/timer.hpp"
#include "dist/sortperm.hpp"
#include "dist/spmspv.hpp"

namespace drcm::dist {

namespace {

/// SET fused into publish-buffer construction: the outgoing frontier
/// carries dense[idx] as its value (the parent's level/label). The buffer
/// stays untouched through the whole collective — peers read it until the
/// second crossing. Shared by the BFS and ordering level kernels.
std::vector<VecEntry>& publish_set(const DistSpVec& frontier,
                                   const DistDenseVec& dense,
                                   mps::Comm& world, mps::Phase other_phase,
                                   DistWorkspace& w) {
  auto& outgoing = w.frontier_scratch();
  const auto prev = world.set_phase(other_phase);
  for (const auto& e : frontier.entries()) {
    outgoing.push_back(VecEntry{e.idx, dense.get(e.idx)});
  }
  world.charge_compute(static_cast<double>(outgoing.size()));
  world.set_phase(prev);
  return outgoing;
}

/// Stage 2: local block multiply into per-row partial minima, then route
/// each partial straight to the owner of its element. The owner min-merges
/// in stamped slots, so the partials travel in whatever order the multiply
/// emitted them.
void route_partials(const DistSpMat& a, const std::vector<VecEntry>& gathered,
                    std::vector<std::vector<VecEntry>>& route,
                    mps::Comm& world, DistWorkspace& w) {
  double work = 0;
  const auto& partial =
      spmspv_local_multiply(a, gathered, w, &work, world.threads());
  const auto& dist = a.vec_dist();
  for (const auto& e : partial) {
    route[static_cast<std::size_t>(dist.owner_rank(e.idx))].push_back(e);
  }
  world.charge_compute(work + static_cast<double>(partial.size()));
}

/// Owner merge: min-combine the <= q partial lists over my owned range in
/// the stamped slot array, recording each slot the first time it fills,
/// then SELECT right here, where the dense vector lives: test only the
/// filled slots against `keep_sentinel` and append the survivors to
/// `kept`, sorted ascending by index (DistSpVec's storage order).
void merge_and_select(const std::vector<VecEntry>& received,
                      const DistDenseVec& dense, index_t keep_sentinel,
                      mps::Comm& world, mps::Phase other_phase,
                      DistWorkspace& w, std::vector<VecEntry>& kept) {
  const index_t lo = dense.lo();
  const index_t hi = dense.hi();
  auto& slots = w.merge_slots(static_cast<std::size_t>(hi - lo));
  auto& touched = w.merge_touched();
  for (const auto& e : received) {
    // Receive-path range check (always on): the entries arrived over the
    // wire, so a corrupted index must stop here as a CheckError, not as an
    // out-of-bounds slot write.
    DRCM_CHECK(e.idx >= lo && e.idx < hi, "partial routed to non-owner");
    if (slots.put_min(static_cast<std::size_t>(e.idx - lo), e.val)) {
      touched.push_back(e.idx - lo);
    }
  }
  world.charge_compute(static_cast<double>(received.size()));
  const auto prev = world.set_phase(other_phase);
  for (const index_t s : touched) {
    const index_t g = lo + s;
    if (dense.get(g) == keep_sentinel) {
      kept.push_back(VecEntry{g, slots.val[static_cast<std::size_t>(s)]});
    }
  }
  std::sort(kept.begin(), kept.end(), idx_less);
  const auto k = static_cast<double>(kept.size());
  world.charge_compute(static_cast<double>(touched.size()) +
                       k * std::log2(k + 1.0));
  world.set_phase(prev);
}

}  // namespace

BfsLevelResult bfs_level_step(const DistSpMat& a, const DistSpVec& frontier,
                              const DistDenseVec& dense,
                              index_t keep_sentinel, ProcGrid2D& grid,
                              mps::Phase spmspv_phase, mps::Phase other_phase,
                              DistWorkspace* ws) {
  DRCM_CHECK(frontier.dist() == a.vec_dist(),
             "frontier distribution does not match the matrix");
  DRCM_CHECK(dense.dist() == a.vec_dist(),
             "dense vector distribution does not match the matrix");
  auto& world = grid.world();
  DistWorkspace& w = ws ? *ws : grid.workspace();
  const int p = world.size();

  BfsLevelResult res;
  mps::PhaseScope scope(world, spmspv_phase);

  auto& outgoing = publish_set(frontier, dense, world, other_phase, w);

  std::vector<VecEntry> kept;
  res.frontier_nnz = static_cast<index_t>(world.fused_gather_route_count(
      grid.col_world_ranks(), std::span<const VecEntry>(outgoing),
      w.gather_scratch(), w.fused_route(static_cast<std::size_t>(p)),
      w.recv_scratch(),
      [&](const std::vector<VecEntry>& gathered,
          std::vector<std::vector<VecEntry>>& route) {
        route_partials(a, gathered, route, world, w);
      },
      [&](const std::vector<VecEntry>& received) {
        merge_and_select(received, dense, keep_sentinel, world, other_phase,
                         w, kept);
      }));

  res.next = frontier.sibling(std::move(kept));
  return res;
}

LevelStepResult cm_level_step(const DistSpMat& a, const DistSpVec& frontier,
                              DistDenseVec& labels,
                              const DistDenseVec& degrees, index_t label_lo,
                              index_t label_hi, index_t next_label,
                              ProcGrid2D& grid, mps::Phase spmspv_phase,
                              mps::Phase sort_phase, mps::Phase other_phase,
                              DistWorkspace* ws) {
  DRCM_CHECK(frontier.dist() == a.vec_dist(),
             "frontier distribution does not match the matrix");
  DRCM_CHECK(labels.dist() == a.vec_dist(),
             "label vector distribution does not match the matrix");
  DRCM_CHECK(degrees.dist() == a.vec_dist(),
             "degree vector distribution does not match the matrix");
  DRCM_CHECK(label_hi > label_lo, "empty parent label range");
  auto& world = grid.world();
  DistWorkspace& w = ws ? *ws : grid.workspace();
  const auto& dist = a.vec_dist();
  const int p = world.size();
  const int q = grid.q();
  const index_t nb = label_hi - label_lo;
  const index_t my_block = block_index(grid.row(), grid.col(), q);

  LevelStepResult res;
  // Measured-wall attribution: a single PhaseScope would land EVERY second
  // of this fused collective — including the SORTPERM plan, deal and worker
  // sort — on the SpMSpV ledger (the modeled split was always exact; the
  // measured one was not, and fig4's breakdown reports the measured split).
  // Instead, sample a timer around each sort-side callback section and
  // split the total at the end.
  WallTimer level_timer;
  double sort_wall = 0.0;
  const mps::Phase prev_phase = world.set_phase(spmspv_phase);

  // SET fused into publish-buffer construction, exactly as in
  // bfs_level_step: the outgoing frontier carries labels[idx] (the parent's
  // Cuthill-McKee label) as its value.
  auto& outgoing = publish_set(frontier, labels, world, other_phase, w);

  std::vector<VecEntry> kept;
  auto& entry_cell = w.entry_cell();
  auto& hist = w.hist_cells();
  SortPlan plan;
  std::size_t my_cells = 0;
  res.global_nnz = static_cast<index_t>(
      world.fused_order_level<VecEntry, SortRec, index_t>(
          grid.col_world_ranks(), std::span<const VecEntry>(outgoing),
          w.gather_scratch(), w.fused_route(static_cast<std::size_t>(p)),
          w.recv_scratch(), w.carry_words(), w.carry_words_all(),
          w.sort_route(static_cast<std::size_t>(p)), w.sort_recv_scratch(),
          w.entry_route(static_cast<std::size_t>(p)), w.rank_recv_scratch(),
          [&](const std::vector<VecEntry>& gathered,
              std::vector<std::vector<VecEntry>>& route) {
            route_partials(a, gathered, route, world, w);
          },
          [&](const std::vector<VecEntry>& received,
              std::vector<index_t>& carry) -> std::int64_t {
            merge_and_select(received, labels, kNoVertex, world, other_phase,
                             w, kept);
            // The SORTPERM bucket histogram of the kept level rides the
            // count superstep as the carried payload — two-level packed
            // (sortperm_pack_cells), so a degree-diverse level carries ~1
            // word per cell instead of 4 and the allgathered volume stays
            // below the element deal instead of approaching 4x above it.
            const auto prev = world.set_phase(sort_phase);
            const WallTimer sort_timer;
            sortperm_local_hist(std::span<const VecEntry>(kept), degrees,
                                label_lo, label_hi, my_block, w, hist,
                                entry_cell);
            sortperm_pack_cells(std::span<const SortHistCell>(hist), my_block,
                                carry);
            my_cells = hist.size();
            world.charge_compute(
                static_cast<double>(2 * kept.size() + carry.size()));
            sort_wall += sort_timer.seconds();
            world.set_phase(prev);
            return static_cast<std::int64_t>(kept.size());
          },
          [&](std::int64_t total, const std::vector<index_t>& carry_all,
              std::vector<std::vector<SortRec>>& deal) {
            // Crossings 4-5 and the sort-side volume belong to the
            // Ordering:Sort ledger from here on. Deal every kept element
            // to its own position's worker: the cursor in `mine` hands out
            // cell start + within-cell ordinal (exact final positions), so
            // the worker stripes are the balanced partition of [0, total).
            world.set_phase(sort_phase);
            const WallTimer sort_timer;
            auto& cells = w.hist_all();
            sortperm_unpack_cells(std::span<const index_t>(carry_all), cells);
            plan = sortperm_plan(std::span<const SortHistCell>(cells), p, nb,
                                 a.n(), w);
            DRCM_CHECK(plan.total == static_cast<index_t>(total),
                       "histogram total disagrees with the level count");
            auto& mine = w.my_starts();
            sortperm_my_starts(plan, my_block, mine);
            DRCM_CHECK(mine.size() == my_cells, "plan misses local cells");
            sortperm_deal(std::span<const VecEntry>(kept), degrees, label_lo,
                          std::span<const index_t>(entry_cell), mine,
                          plan.total, p, deal);
            world.charge_compute(static_cast<double>(4 * cells.size()) +
                                 static_cast<double>(kept.size() + nb) +
                                 static_cast<double>(carry_all.size()));
            sort_wall += sort_timer.seconds();
          },
          [&](const std::vector<SortRec>& dealt,
              std::span<const std::uint64_t> counts,
              std::vector<std::vector<VecEntry>>& back) {
            // Worker side: the shared sort tail brings the dealt elements
            // to (bucket, degree, idx) — position — order, so my t-th
            // element's label is next_label + stripe_lo + t.
            const WallTimer sort_timer;
            index_t stripe_lo = 0;
            auto& arr = sortperm_worker_sort(std::span<const SortRec>(dealt),
                                             counts, q, plan.total, nb, a.n(),
                                             world, w, &stripe_lo);
            for (std::size_t t = 0; t < arr.size(); ++t) {
              back[static_cast<std::size_t>(dist.owner_rank(arr[t].idx))]
                  .push_back(VecEntry{
                      arr[t].idx,
                      next_label + stripe_lo + static_cast<index_t>(t)});
            }
            world.charge_compute(static_cast<double>(arr.size()));
            sort_wall += sort_timer.seconds();
          },
          [&](const std::vector<VecEntry>& ranked) {
            // SET(R, Rnext): every kept element receives exactly one label.
            DRCM_CHECK(ranked.size() == kept.size(),
                       "every level element must receive exactly one label");
            const auto prev = world.set_phase(other_phase);
            for (const auto& e : ranked) {
              DRCM_CHECK(labels.owns(e.idx), "label routed to non-owner");
              labels.set(e.idx, e.val);
            }
            world.charge_compute(static_cast<double>(ranked.size()));
            world.set_phase(prev);
          }));

  // Callbacks may have left the phase on the sort bucket; restore the
  // caller's, then split the measured wall: the sampled SORTPERM seconds go
  // to the sort ledger, the rest of the collective to SpMSpV.
  world.set_phase(prev_phase);
  const double total_wall = level_timer.seconds();
  world.stats().add_wall(sort_phase, sort_wall);
  world.stats().add_wall(spmspv_phase, std::max(0.0, total_wall - sort_wall));
  res.next = frontier.sibling(std::move(kept));
  return res;
}

DistSpVec frontier_from_label_range(const DistDenseVec& labels,
                                    index_t label_lo, index_t label_hi,
                                    ProcGrid2D& grid,
                                    mps::Phase other_phase) {
  auto& world = grid.world();
  mps::PhaseScope scope(world, other_phase);
  std::vector<VecEntry> entries;
  for (index_t g = labels.lo(); g < labels.hi(); ++g) {
    const index_t l = labels.get(g);
    if (l >= label_lo && l < label_hi) entries.push_back(VecEntry{g, l});
  }
  world.charge_compute(static_cast<double>(labels.local_size()));
  DistSpVec out(labels.dist(), grid);
  out.assign(std::move(entries));
  return out;
}

}  // namespace drcm::dist
