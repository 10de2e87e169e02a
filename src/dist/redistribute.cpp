#include "dist/redistribute.hpp"

#include <algorithm>
#include <cmath>

namespace drcm::dist {

namespace {

/// Receive tail of the one-shot redistribution: a counting pass by row over
/// the known range [lo, hi), a scatter into the CSR slab, then a column
/// sort of each row's few entries: O(recv + sum of d log d) over the row
/// lengths d, charged to `work`. The (row, col) keys are unique — a
/// bijective relabeling of a deduplicated pattern — so the result is the
/// (row, col) order whatever the arrival order. `recv` is not read after
/// the scatter and serves as the per-row sort scratch, so the step keeps
/// no buffer beyond the triples and the slab.
RowBlockCsr build_row_block(std::vector<MatEntryV>& recv, index_t n,
                            mps::Comm& world, double& work) {
  RowBlockCsr out;
  out.n = n;
  out.lo = row_block_lo(n, world.size(), world.rank());
  out.hi = row_block_lo(n, world.size(), world.rank() + 1);
  const auto nloc = static_cast<std::size_t>(out.local_rows());

  // Counting pass. row_ptr[r + 2] counts row r, so after the prefix sum
  // row_ptr[r + 1] is row r's first slot and serves as its scatter cursor;
  // the scatter advances it to row r's end, which leaves row_ptr final.
  out.row_ptr.assign(nloc + 2, 0);
  for (const auto& e : recv) {
    // Receive-path range check (always on), before either coordinate is
    // used: the row indexes the local row_ptr and the column later indexes
    // CG's halo'd solution vector.
    DRCM_CHECK(e.row >= out.lo && e.row < out.hi && e.col >= 0 && e.col < n,
               "received matrix entry outside the owned row block");
    ++out.row_ptr[static_cast<std::size_t>(e.row - out.lo) + 2];
  }
  for (std::size_t r = 2; r < nloc + 2; ++r) {
    out.row_ptr[r] += out.row_ptr[r - 1];
  }
  out.cols.resize(recv.size());
  out.vals.resize(recv.size());
  for (const auto& e : recv) {
    const auto slot = static_cast<std::size_t>(
        out.row_ptr[static_cast<std::size_t>(e.row - out.lo) + 1]++);
    out.cols[slot] = e.col;
    out.vals[slot] = e.val;
  }
  out.row_ptr.pop_back();

  // Column sort per row: the row's (col, val) pairs go through the front of
  // `recv`, are sorted by column and written back.
  work = 2.0 * static_cast<double>(recv.size());
  for (std::size_t r = 0; r < nloc; ++r) {
    const auto b = static_cast<std::size_t>(out.row_ptr[r]);
    const auto d = static_cast<std::size_t>(out.row_ptr[r + 1]) - b;
    work += static_cast<double>(d) * std::log2(static_cast<double>(d) + 1.0);
    for (std::size_t k = 0; k < d; ++k) {
      recv[k].col = out.cols[b + k];
      recv[k].val = out.vals[b + k];
    }
    std::sort(recv.begin(), recv.begin() + static_cast<std::ptrdiff_t>(d),
              [](const MatEntryV& x, const MatEntryV& y) {
                return x.col < y.col;
              });
    for (std::size_t k = 0; k < d; ++k) {
      out.cols[b + k] = recv[k].col;
      out.vals[b + k] = recv[k].val;
    }
  }
  return out;
}

/// Shared streaming body of both label arms: `row_label(gr)` and
/// `col_label(gc)` supply the new index of an original row of this rank's
/// row chunk / column of its column chunk (a replicated-vector read, or a
/// read of the sharded arm's received windows). `label_resident` is what
/// the label lookup itself keeps resident, charged alongside the triples.
template <class RowLabel, class ColLabel>
OneShotRowBlocks stream_to_row_blocks(const sparse::CsrMatrix& a,
                                      ProcGrid2D& grid, RowLabel&& row_label,
                                      ColLabel&& col_label,
                                      std::uint64_t label_resident) {
  const index_t n = a.n();
  auto& world = grid.world();
  const int p = world.size();
  const VectorDist dist(n, grid.q());
  const index_t row_lo = dist.chunk_lo(grid.row());
  const index_t row_hi = dist.chunk_lo(grid.row() + 1);
  const index_t col_lo = dist.chunk_lo(grid.col());
  const index_t col_hi = dist.chunk_lo(grid.col() + 1);
  const bool has_values = a.has_values();

  // Stream my balanced-2D block straight out of the input: for each entry,
  // relabel BOTH coordinates and route the triple to the 1D owner of its
  // new row. A whole original row shares one new row, hence one
  // destination, so the owner lookup is per-row, not per-entry. The
  // permuted bandwidth folds into the same pass. Staging lives in the
  // workspace so a repeat pattern (same routing, same sizes) re-runs this
  // exchange with zero reallocations — the serving layer's steady state.
  auto& send = grid.workspace().mat_route(static_cast<std::size_t>(p));
  std::uint64_t block_nnz = 0;
  index_t local_bw = 0;
  for (index_t gr = row_lo; gr < row_hi; ++gr) {
    const auto cols = a.row(gr);
    const auto first = std::lower_bound(cols.begin(), cols.end(), col_lo);
    if (first == cols.end() || *first >= col_hi) continue;
    const index_t nr = row_label(gr);
    auto& deal = send[static_cast<std::size_t>(row_block_owner(n, p, nr))];
    for (auto it = first; it != cols.end() && *it < col_hi; ++it) {
      const index_t nc = col_label(*it);
      local_bw = std::max(local_bw, nr > nc ? nr - nc : nc - nr);
      const double val =
          has_values
              ? a.row_values(gr)[static_cast<std::size_t>(it - cols.begin())]
              : 0.0;
      deal.push_back(MatEntryV{nr, nc, val});
      ++block_nnz;
    }
  }
  auto recv = world.alltoallv(send);
  // The in-flight peak: the input block as a coordinate stream (a real
  // implementation holds exactly the triples it is about to route — no
  // CSC column pointer, so no O(n/q) term), the staged sends, and the
  // received slab triples. Everything is O(nnz/p) for a balanced block.
  // The staging capacity is deliberately NOT released: it is workspace
  // state, warm for the next request with this routing shape.
  world.note_resident(label_resident + 3 * block_nnz + 3 * block_nnz +
                      3 * recv.size());

  const auto recv_size = recv.size();
  double assembly_work = 0.0;
  OneShotRowBlocks out;
  out.block = build_row_block(recv, n, world, assembly_work);
  out.bandwidth = world.allreduce(
      local_bw, [](index_t x, index_t y) { return x > y ? x : y; });
  world.charge_compute(static_cast<double>(block_nnz) + assembly_work);
  world.note_resident(label_resident + 3 * block_nnz + 3 * recv_size +
                      out.block.resident_elements());
  return out;
}

}  // namespace

OneShotRowBlocks redistribute_to_row_blocks(const sparse::CsrMatrix& a,
                                            const std::vector<index_t>& labels,
                                            ProcGrid2D& grid) {
  const index_t n = a.n();
  DRCM_CHECK(labels.size() == static_cast<std::size_t>(n),
             "labels must cover every vertex");
  DRCM_CHECK(a.has_values() || a.nnz() == 0,
             "redistribute_to_row_blocks feeds the solver: "
             "the matrix must carry values");
  const auto label_of = [&](index_t g) {
    const index_t lab = labels[static_cast<std::size_t>(g)];
    DRCM_CHECK(lab >= 0 && lab < n, "label out of range");
    return lab;
  };
  return stream_to_row_blocks(a, grid, label_of, label_of,
                              /*label_resident=*/0);
}

OneShotRowBlocks redistribute_to_row_blocks(const sparse::CsrMatrix& a,
                                            const DistDenseVec& labels,
                                            ProcGrid2D& grid) {
  const index_t n = a.n();
  DRCM_CHECK(a.has_values() || a.nnz() == 0,
             "redistribute_to_row_blocks feeds the solver: "
             "the matrix must carry values");
  auto& world = grid.world();
  const int p = world.size();
  const int q = grid.q();
  const VectorDist dist(n, q);
  DRCM_CHECK(labels.dist() == dist,
             "sharded labels must use the grid's vector distribution");
  const index_t row_lo = dist.chunk_lo(grid.row());
  const index_t row_hi = dist.chunk_lo(grid.row() + 1);
  const index_t col_lo = dist.chunk_lo(grid.col());
  const index_t col_hi = dist.chunk_lo(grid.col() + 1);

  // Phase 1 — label-window exchange. The streaming loop below relabels the
  // rows of chunk grid.row() and the columns of chunk grid.col(); with the
  // labels sharded O(n/p) per rank, those windows live on other ranks. The
  // consumers of label g are arithmetically known: g sits in chunk
  // c0 = owner_col(g), so grid row c0 (all q columns) reads it as a row
  // label and grid column c0 (all q rows) as a column label. Each owner
  // pushes its O(n/p) labels to those 2q-1 ranks — ONE alltoallv, O(n/q)
  // received per rank — and the receivers fill dense per-chunk windows.
  std::vector<std::vector<VecEntry>> lsend(static_cast<std::size_t>(p));
  std::uint64_t lsend_total = 0;
  for (index_t g = labels.lo(); g < labels.hi(); ++g) {
    const index_t lab = labels.get(g);
    DRCM_CHECK(lab >= 0 && lab < n, "label out of range");
    const int c0 = dist.owner_col(g);
    for (int c = 0; c < q; ++c) {
      lsend[static_cast<std::size_t>(grid.world_rank_of(c0, c))].push_back(
          VecEntry{g, lab});
    }
    for (int r = 0; r < q; ++r) {
      if (r == c0) continue;  // (c0, c0) already receives via the row loop
      lsend[static_cast<std::size_t>(grid.world_rank_of(r, c0))].push_back(
          VecEntry{g, lab});
    }
    lsend_total += static_cast<std::uint64_t>(2 * q - 1);
  }
  auto lrecv = world.alltoallv(lsend);
  std::vector<index_t> row_label(static_cast<std::size_t>(row_hi - row_lo),
                                 kNoVertex);
  std::vector<index_t> col_label(static_cast<std::size_t>(col_hi - col_lo),
                                 kNoVertex);
  for (const auto& e : lrecv) {
    // Receive-path range checks (always on): wire data indexes the windows.
    DRCM_CHECK(e.val >= 0 && e.val < n, "received label out of range");
    bool used = false;
    if (e.idx >= row_lo && e.idx < row_hi) {
      row_label[static_cast<std::size_t>(e.idx - row_lo)] = e.val;
      used = true;
    }
    if (e.idx >= col_lo && e.idx < col_hi) {
      col_label[static_cast<std::size_t>(e.idx - col_lo)] = e.val;
      used = true;
    }
    DRCM_CHECK(used, "received label outside both lookup windows");
  }
  for (const index_t lab : row_label) {
    DRCM_CHECK(lab != kNoVertex, "row label window has a hole");
  }
  for (const index_t lab : col_label) {
    DRCM_CHECK(lab != kNoVertex, "column label window has a hole");
  }
  world.charge_compute(static_cast<double>(lsend_total) +
                       static_cast<double>(lrecv.size()) +
                       static_cast<double>(row_label.size()) +
                       static_cast<double>(col_label.size()));
  world.note_resident(static_cast<std::uint64_t>(labels.local_size()) +
                      row_label.size() + col_label.size() + 2 * lsend_total +
                      2 * lrecv.size());
  // The window exchange staging is transient, not steady-state routing
  // capacity: release it before the matrix triples go resident.
  lsend.clear();
  lsend.shrink_to_fit();
  lrecv.clear();
  lrecv.shrink_to_fit();

  // Phase 2 — the replicated-label streaming body, reading the O(n/q)
  // windows instead of the O(n) vector. Same routing, same triples on the
  // wire, same receive assembly: the resulting blocks are bit-identical.
  return stream_to_row_blocks(
      a, grid,
      [&](index_t g) { return row_label[static_cast<std::size_t>(g - row_lo)]; },
      [&](index_t g) { return col_label[static_cast<std::size_t>(g - col_lo)]; },
      static_cast<std::uint64_t>(labels.local_size()) + row_label.size() +
          col_label.size());
}

namespace {

/// Shared body of the two row-slab arms: `label_of(g)` supplies the new
/// index of owned element g (a replicated-vector read, or a purely local
/// sharded-slab read when the vector and the labels share one
/// distribution). Staging comes from `ws` when provided, so steady-state
/// repeat requests run the exchange reallocation-free.
template <class LabelOf>
std::vector<double> row_slab_exchange(const DistDenseVecD& v,
                                      LabelOf&& label_of, mps::Comm& world,
                                      DistWorkspace* ws) {
  const index_t n = v.dist().n();
  const int p = world.size();
  DRCM_CHECK(v.dist().q() * v.dist().q() == p,
             "redistribute_to_row_slab needs the grid's world comm");

  std::vector<std::vector<VecEntryD>> local_send;
  if (!ws) local_send.resize(static_cast<std::size_t>(p));
  std::vector<std::vector<VecEntryD>>& send =
      ws ? ws->vecd_route(static_cast<std::size_t>(p)) : local_send;
  for (index_t g = v.lo(); g < v.hi(); ++g) {
    const index_t ng = label_of(g);
    DRCM_CHECK(ng >= 0 && ng < n, "label out of range");
    send[static_cast<std::size_t>(row_block_owner(n, p, ng))].push_back(
        VecEntryD{ng, v.get(g)});
  }
  const auto recv = world.alltoallv(send);
  const index_t lo = row_block_lo(n, p, world.rank());
  const index_t hi = row_block_lo(n, p, world.rank() + 1);
  std::vector<double> slab(static_cast<std::size_t>(hi - lo), 0.0);
  DRCM_CHECK(recv.size() == slab.size(),
             "permutation must re-own every element exactly once");
  for (const auto& e : recv) {
    // Receive-path range check (always on): the index addresses my slab.
    DRCM_CHECK(e.idx >= lo && e.idx < hi,
               "received element outside the owned row block");
    slab[static_cast<std::size_t>(e.idx - lo)] = e.val;
  }
  world.charge_compute(static_cast<double>(v.local_size()) +
                       static_cast<double>(recv.size()));
  return slab;
}

}  // namespace

std::vector<double> redistribute_to_row_slab(const DistDenseVecD& v,
                                             const std::vector<index_t>& labels,
                                             mps::Comm& world,
                                             DistWorkspace* ws) {
  DRCM_CHECK(labels.size() == static_cast<std::size_t>(v.dist().n()),
             "labels must cover every element");
  return row_slab_exchange(
      v,
      [&](index_t g) { return labels[static_cast<std::size_t>(g)]; },
      world, ws);
}

std::vector<double> redistribute_to_row_slab(const DistDenseVecD& v,
                                             const DistDenseVec& labels,
                                             mps::Comm& world,
                                             DistWorkspace* ws) {
  // The 2D rhs slab and the sharded label vector share one distribution,
  // so the relabel lookup never leaves the rank: the sharded arm costs the
  // SAME single alltoallv as the replicated arm.
  DRCM_CHECK(labels.dist() == v.dist(),
             "sharded labels must share the vector's distribution");
  return row_slab_exchange(
      v, [&](index_t g) { return labels.get(g); }, world, ws);
}

}  // namespace drcm::dist
