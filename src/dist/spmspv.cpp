#include "dist/spmspv.hpp"

#include <omp.h>

#include <algorithm>

namespace drcm::dist {

namespace {

/// Contiguous stripe [lo, hi) of [0, n) owned by team member `t` of
/// `parts`. Pure arithmetic on (n, parts, t): the partition — and with it
/// the hybrid output — does not depend on scheduling.
struct Stripe {
  std::size_t lo;
  std::size_t hi;
};

Stripe stripe_of(std::size_t n, int parts, int t) {
  const auto p = static_cast<std::size_t>(parts);
  const auto i = static_cast<std::size_t>(t);
  return Stripe{n * i / p, n * (i + 1) / p};
}

/// Stage 2, flat: accumulate minima in the workspace's stamped SPA,
/// recording each row the first time it is touched, then emit the touched
/// rows once each, in first-touch order, into `out` (GLOBAL rows). No pass
/// over untouched rows: O(frontier edges).
void multiply_spa(const DistSpMat& a, std::span<const VecEntry> frontier,
                  DistWorkspace& ws, std::vector<VecEntry>& out,
                  double* work) {
  auto& spa = ws.spa(static_cast<std::size_t>(a.local_rows()));
  auto& touched = ws.spa_touched();
  double edges = 0;
  for (const auto& e : frontier) {
    const auto col = a.column(e.idx - a.col_lo());
    edges += static_cast<double>(col.size());
    for (const index_t lr : col) {
      if (spa.put_min(static_cast<std::size_t>(lr), e.val)) {
        touched.push_back(lr);
      }
    }
  }
  for (const index_t lr : touched) {
    out.push_back(
        VecEntry{a.row_lo() + lr, spa.val[static_cast<std::size_t>(lr)]});
  }
  *work = edges + static_cast<double>(out.size());
}

/// Hybrid stage 2 (paper Fig. 6, the node-level parallel SpMSpV): the
/// frontier loop splits into contiguous stripes, one per OpenMP thread,
/// each accumulating into its own stamped SPA (and recording its
/// first-touched rows); after the team barrier every thread emits a
/// contiguous ROW stripe by min-merging the team SPAs, so the thread-order
/// concatenation is ascending (min is associative and commutative, so the
/// frontier partition is invisible in the output).
///
/// The merge is output-sensitive: when the team touched fewer distinct
/// slots than there are local rows, each thread collects the touched rows
/// of its stripe from the per-thread lists, sorts/dedups, and probes only
/// those (O(touched log touched + touched * team) instead of the dense
/// O(rows * team) scan — the ROADMAP PR-4 follow-up). Dense levels keep
/// the branch-free dense scan. Both branches emit identical entries.
void multiply_spa_hybrid(const DistSpMat& a, std::span<const VecEntry> frontier,
                         int threads, DistWorkspace& ws,
                         std::vector<VecEntry>& out, double* work) {
  const auto rows = static_cast<std::size_t>(a.local_rows());
  const auto spas = ws.thread_spas(static_cast<std::size_t>(threads), rows);
  const auto stripes = ws.thread_stripes(static_cast<std::size_t>(threads));
  double edges = 0;
#pragma omp parallel num_threads(threads) reduction(+ : edges)
  {
    // The runtime may grant fewer threads than requested: partition by the
    // actual team size (the result does not depend on it).
    const int team = omp_get_num_threads();
    const int t = omp_get_thread_num();
    auto& mine = stripes[static_cast<std::size_t>(t)];
    auto& spa = spas[static_cast<std::size_t>(t)];
    const auto f = stripe_of(frontier.size(), team, t);
    for (std::size_t i = f.lo; i < f.hi; ++i) {
      const auto& e = frontier[i];
      const auto col = a.column(e.idx - a.col_lo());
      edges += static_cast<double>(col.size());
      for (const index_t lr : col) {
        if (spa.put_min(static_cast<std::size_t>(lr), e.val)) {
          mine.touched.push_back(lr);
        }
      }
    }
#pragma omp barrier
    // Switch on the SUMMED per-thread touched counts — a conservative,
    // non-deduplicated proxy for the distinct touched slots (threads
    // touching the same hot rows inflate it by up to the team size, which
    // only pushes toward the dense scan, never an over-long sparse merge).
    // Every thread sees the same totals, so the branch is taken uniformly
    // for a given team size, and either branch emits the same entries —
    // the equivalence walls sweep both regimes.
    std::size_t total_touched = 0;
    for (int m = 0; m < team; ++m) {
      total_touched += stripes[static_cast<std::size_t>(m)].touched.size();
    }
    auto& emit = mine.emit;
    const auto r = stripe_of(rows, team, t);
    if (total_touched < rows) {
      // Sparse level: merge only the rows somebody actually touched.
      auto& cand = mine.gather;
      cand.clear();
      for (int m = 0; m < team; ++m) {
        for (const index_t lr : stripes[static_cast<std::size_t>(m)].touched) {
          const auto s = static_cast<std::size_t>(lr);
          if (s >= r.lo && s < r.hi) cand.push_back(lr);
        }
      }
      std::sort(cand.begin(), cand.end());
      cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
      for (const index_t lr : cand) {
        const auto s = static_cast<std::size_t>(lr);
        bool live = false;
        index_t best = 0;
        for (int m = 0; m < team; ++m) {
          const auto& other = spas[static_cast<std::size_t>(m)];
          if (!other.live(s)) continue;
          best = live ? std::min(best, other.val[s]) : other.val[s];
          live = true;
        }
        emit.push_back(VecEntry{a.row_lo() + lr, best});
      }
    } else {
      // Dense level: the branch-free full-stripe scan wins.
      for (std::size_t s = r.lo; s < r.hi; ++s) {
        bool live = false;
        index_t best = 0;
        for (int m = 0; m < team; ++m) {
          const auto& other = spas[static_cast<std::size_t>(m)];
          if (!other.live(s)) continue;
          best = live ? std::min(best, other.val[s]) : other.val[s];
          live = true;
        }
        if (live) {
          emit.push_back(VecEntry{a.row_lo() + static_cast<index_t>(s), best});
        }
      }
    }
  }
  for (const auto& stripe : stripes) {
    out.insert(out.end(), stripe.emit.begin(), stripe.emit.end());
  }
  // Charged as the flat loop's work: same edges, same emitted rows. The
  // per-row team probes are the price of the merge, paid in wall time only;
  // the Comm divides these modeled units by the thread count.
  *work = edges + static_cast<double>(out.size());
}

}  // namespace

std::vector<VecEntry>& spmspv_local_multiply(const DistSpMat& a,
                                             std::span<const VecEntry> frontier,
                                             DistWorkspace& ws, double* work,
                                             int threads) {
  DRCM_CHECK(threads >= 1, "local multiply needs at least one thread");
  // Receive-path range check (always on): the gathered frontier arrived
  // over the wire and both paths below turn e.idx into a local column
  // access, so a corrupted index must stop here as a CheckError.
  for (const auto& e : frontier) {
    DRCM_CHECK(e.idx >= a.col_lo() && e.idx < a.col_hi(),
               "received frontier index outside the local column chunk");
  }
  auto& out = ws.partial_scratch();
  if (threads > 1) {
    multiply_spa_hybrid(a, frontier, threads, ws, out, work);
  } else {
    multiply_spa(a, frontier, ws, out, work);
  }
  return out;
}

DistSpVec spmspv_select2nd_min(const DistSpMat& a, const DistSpVec& x,
                               ProcGrid2D& grid, DistWorkspace* ws) {
  DRCM_CHECK(x.dist() == a.vec_dist(),
             "frontier distribution does not match the matrix");
  auto& world = grid.world();
  DistWorkspace& w = ws ? *ws : grid.workspace();
  const auto& dist = a.vec_dist();
  const int q = grid.q();

  // Stage 1: my block needs the frontier entries of my whole column chunk,
  // which lives sub-chunk by sub-chunk on my processor column. Members are
  // ranked by grid row, so the concatenation arrives index-sorted.
  const auto frontier =
      grid.col_comm().allgatherv(std::span<const VecEntry>(x.entries()));

  // Stage 2: local block multiply into per-row partial minima, split
  // across the rank's hybrid OpenMP team (communication stays on this
  // thread, as in the paper's one-communicating-thread design).
  double work = 0;
  const auto& partial =
      spmspv_local_multiply(a, frontier, w, &work, world.threads());

  // Stage 3a: my partial rows live in row chunk R = grid.row(); the rank
  // in my processor row at column s merges sub-chunk s of that chunk —
  // which is the grid row of the element's owner. Stage 3b merges in
  // stamped slots, so the partials may travel in any order.
  auto& to_merge = w.merge_route(static_cast<std::size_t>(q));
  const auto& cuts = a.cuts();
  for (const auto& e : partial) {
    to_merge[static_cast<std::size_t>(cuts.owner_row_in_chunk(grid.row(), e.idx))]
        .push_back(e);
  }
  const auto received = grid.row_comm().alltoallv(to_merge);

  // Stage 3b: min-merge the q partial lists over my merge sub-range
  // (sub-chunk grid.col() of chunk grid.row()) with the stamped slot array.
  const index_t m_lo = dist.sub_lo(grid.row(), grid.col());
  const index_t m_hi = dist.sub_lo(grid.row(), grid.col() + 1);
  auto& slots = w.merge_slots(static_cast<std::size_t>(m_hi - m_lo));
  for (const auto& e : received) {
    // Receive-path range check (always on): a corrupted index must stop
    // here as a CheckError, not as an out-of-bounds slot write.
    DRCM_CHECK(e.idx >= m_lo && e.idx < m_hi, "partial routed to wrong rank");
    slots.put_min(static_cast<std::size_t>(e.idx - m_lo), e.val);
  }
  std::vector<VecEntry> merged;
  for (index_t g = m_lo; g < m_hi; ++g) {
    const auto s = static_cast<std::size_t>(g - m_lo);
    if (slots.live(s)) merged.push_back(VecEntry{g, slots.val[s]});
  }
  work += static_cast<double>(partial.size() + received.size()) +
          kScanUnit * static_cast<double>(m_hi - m_lo);
  world.charge_compute(work);

  // Stage 3c: the merge range I hold is owned by my transpose partner (and
  // vice versa) — one simultaneous pairwise exchange realigns everything.
  auto mine = world.pairwise_exchange(grid.transpose_partner(),
                                      std::span<const VecEntry>(merged));
  DistSpVec y(dist, grid);
  y.assign(std::move(mine));
  return y;
}

}  // namespace drcm::dist
