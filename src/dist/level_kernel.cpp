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
/// second crossing. Shared by the BFS level kernel and the column-frontier
/// gather of the ordering level.
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
/// each partial straight to the owner of its element. Every partial lies in
/// my row chunk, so its owner is one of the q ranks of processor column
/// grid.row(), found by a scan of that chunk's sub-chunk cuts. The owner
/// min-merges in stamped slots, so the partials travel in whatever order
/// the multiply emitted them.
void route_partials(const DistSpMat& a, const std::vector<VecEntry>& gathered,
                    std::vector<std::vector<VecEntry>>& route,
                    ProcGrid2D& grid, DistWorkspace& w) {
  auto& world = grid.world();
  double work = 0;
  const auto& partial = spmspv_local_multiply(a, gathered, w, &work);
  const auto& cuts = a.cuts();
  const int chunk = grid.row();
  for (const auto& e : partial) {
    const int r = cuts.owner_row_in_chunk(chunk, e.idx);
    route[static_cast<std::size_t>(grid.world_rank_of(r, chunk))].push_back(e);
  }
  world.charge_compute(work + static_cast<double>(partial.size()));
}

/// Owner merge: min-combine the <= q partial lists over my owned range
/// [lo, hi) in the stamped slot array, recording each slot the first time
/// it fills, then test only the filled slots with `keep` — SELECT, right
/// here where the dense vector lives, or nothing for the standalone
/// SpMSpV — and append the survivors to `kept`, sorted ascending by index
/// (DistSpVec's storage order). The keep scan and sort are charged to
/// `other_phase`.
template <class Keep>
void merge_owned(const std::vector<VecEntry>& received, index_t lo,
                 index_t hi, Keep&& keep, mps::Comm& world,
                 mps::Phase other_phase, DistWorkspace& w,
                 std::vector<VecEntry>& kept) {
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
    if (keep(g)) {
      kept.push_back(VecEntry{g, slots.val[static_cast<std::size_t>(s)]});
    }
  }
  std::sort(kept.begin(), kept.end(), idx_less);
  const auto k = static_cast<double>(kept.size());
  world.charge_compute(static_cast<double>(touched.size()) +
                       k * std::log2(k + 1.0));
  world.set_phase(prev);
}

/// The owner merge with SELECT: keep the slots whose dense value equals
/// `keep_sentinel`.
void merge_and_select(const std::vector<VecEntry>& received,
                      const DistDenseVec& dense, index_t keep_sentinel,
                      mps::Comm& world, mps::Phase other_phase,
                      DistWorkspace& w, std::vector<VecEntry>& kept) {
  merge_owned(
      received, dense.lo(), dense.hi(),
      [&](index_t g) { return dense.get(g) == keep_sentinel; }, world,
      other_phase, w, kept);
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
        route_partials(a, gathered, route, grid, w);
      },
      [&](const std::vector<VecEntry>& received) {
        merge_and_select(received, dense, keep_sentinel, world, other_phase,
                         w, kept);
      }));

  res.next = frontier.sibling(std::move(kept));
  return res;
}

DistSpVec spmspv_select2nd_min(const DistSpMat& a, const DistSpVec& x,
                               ProcGrid2D& grid, DistWorkspace* ws) {
  DRCM_CHECK(x.dist() == a.vec_dist(),
             "frontier distribution does not match the matrix");
  auto& world = grid.world();
  DistWorkspace& w = ws ? *ws : grid.workspace();
  const int p = world.size();

  // bfs_level_step without SET or SELECT: x's values travel as published
  // and the owner keeps every merged slot, all on the caller's phase.
  std::vector<VecEntry> merged;
  world.fused_gather_route_count(
      grid.col_world_ranks(), std::span<const VecEntry>(x.entries()),
      w.gather_scratch(), w.fused_route(static_cast<std::size_t>(p)),
      w.recv_scratch(),
      [&](const std::vector<VecEntry>& gathered,
          std::vector<std::vector<VecEntry>>& route) {
        route_partials(a, gathered, route, grid, w);
      },
      [&](const std::vector<VecEntry>& received) {
        merge_owned(
            received, x.lo(), x.hi(), [](index_t) { return true; }, world,
            world.phase(), w, merged);
      });
  return x.sibling(std::move(merged));
}

LevelStepResult cm_level_step(const DistSpMat& a, std::vector<VecEntry>& column,
                              DistDenseVec& labels,
                              const DistDenseVec& degrees, index_t label_lo,
                              index_t label_hi, index_t next_label,
                              ProcGrid2D& grid, mps::Phase spmspv_phase,
                              mps::Phase sort_phase, mps::Phase other_phase,
                              DistWorkspace* ws) {
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
  const index_t chunk_lo = dist.chunk_lo(grid.col());
  const index_t chunk_hi = dist.chunk_lo(grid.col() + 1);

  // Measured-wall attribution: sample a timer around each sort-side
  // callback section (deal, worker sort) and split the level's wall at
  // the end, so fig4's measured breakdown matches the modeled one.
  WallTimer level_timer;
  double sort_wall = 0.0;
  const mps::Phase prev_phase = world.set_phase(spmspv_phase);

  std::vector<VecEntry> kept;
  const auto total = static_cast<index_t>(
      world.fused_order_level<VecEntry, SortRec>(
          w.fused_route(static_cast<std::size_t>(p)), w.recv_scratch(),
          w.sort_route(static_cast<std::size_t>(p)), w.sort_recv_scratch(),
          w.entry_route(static_cast<std::size_t>(p)), column,
          [&](std::vector<std::vector<VecEntry>>& route) {
            route_partials(a, column, route, grid, w);
          },
          [&](const std::vector<VecEntry>& received,
              std::vector<std::vector<SortRec>>& deal) {
            merge_and_select(received, labels, kNoVertex, world, other_phase,
                             w, kept);
            // Deal every kept vertex to the worker whose parent-label
            // stripe holds its bucket: ranks ascend in label order, so the
            // deal counts alone fix every worker's label offset.
            const auto prev = world.set_phase(sort_phase);
            const WallTimer sort_timer;
            sortperm_stripe_deal(kept, degrees, label_lo, label_hi, deal);
            world.charge_compute(static_cast<double>(kept.size()));
            sort_wall += sort_timer.seconds();
            world.set_phase(prev);
          },
          [&](const std::vector<SortRec>& dealt,
              std::span<const std::uint64_t> counts, std::int64_t offset,
              std::int64_t level_total,
              std::vector<std::vector<VecEntry>>& route) {
            // Worker side, on the sort ledger from here on (crossing 3
            // included): replay the dealt triples to global index order,
            // counting-sort them to (bucket, degree, index) order, and my
            // t-th triple's label is next_label + offset + t.
            world.set_phase(sort_phase);
            const WallTimer sort_timer;
            DRCM_CHECK(offset >= 0 &&
                           offset + static_cast<std::int64_t>(dealt.size()) <=
                               level_total,
                       "worker offset outside the level");
            double units = 0.0;
            auto& arr = sortperm_stripe_sort(
                std::span<const SortRec>(dealt), counts, world.rank(), q, nb,
                a.n(), w, &units);
            // Every rank of the owner's processor column expands the
            // vertex next level: deliver the label to all q of them.
            for (std::size_t t = 0; t < arr.size(); ++t) {
              const VecEntry e{arr[t].idx,
                               next_label + offset + static_cast<index_t>(t)};
              const int c = a.cuts().owner_col(e.idx);
              for (int r = 0; r < q; ++r) {
                route[static_cast<std::size_t>(grid.world_rank_of(r, c))]
                    .push_back(e);
              }
            }
            world.charge_compute(units +
                                 static_cast<double>(q * arr.size()));
            sort_wall += sort_timer.seconds();
          },
          [&](const std::vector<VecEntry>& got) {
            // `got` is the next column frontier; SET(R, Rnext) on the
            // vertices I own. Every kept vertex receives exactly one label.
            const auto prev = world.set_phase(other_phase);
            std::size_t owned = 0;
            for (const auto& e : got) {
              DRCM_CHECK(e.idx >= chunk_lo && e.idx < chunk_hi,
                         "label routed outside the receiver's column chunk");
              if (labels.owns(e.idx)) {
                labels.set(e.idx, e.val);
                ++owned;
              }
            }
            DRCM_CHECK(owned == kept.size(),
                       "every level element must receive exactly one label");
            world.charge_compute(static_cast<double>(got.size()));
            world.set_phase(prev);
          }));
  if (total == 0) column.clear();

  world.set_phase(prev_phase);
  const double total_wall = level_timer.seconds();
  world.stats().add_wall(sort_phase, sort_wall);
  world.stats().add_wall(spmspv_phase, std::max(0.0, total_wall - sort_wall));
  LevelStepResult res;
  res.next = DistSpVec(dist, grid);
  res.next.assign(std::move(kept));
  res.global_nnz = total;
  return res;
}

std::vector<VecEntry> gather_column_frontier(const DistSpVec& frontier,
                                             const DistDenseVec& labels,
                                             ProcGrid2D& grid,
                                             mps::Phase phase) {
  DRCM_CHECK(frontier.dist() == labels.dist(),
             "frontier and label vector must share one distribution");
  auto& world = grid.world();
  DistWorkspace& w = grid.workspace();
  mps::PhaseScope scope(world, phase);
  const auto& outgoing = publish_set(frontier, labels, world, phase, w);
  // The column gather of the level superstep with nothing routed.
  std::vector<VecEntry> column;
  world.fused_gather_route_count(
      grid.col_world_ranks(), std::span<const VecEntry>(outgoing), column,
      w.fused_route(static_cast<std::size_t>(world.size())), w.recv_scratch(),
      [](const std::vector<VecEntry>&, std::vector<std::vector<VecEntry>>&) {},
      [](const std::vector<VecEntry>&) {});
  return column;
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
