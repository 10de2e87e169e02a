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
/// (row, col) order whatever the arrival order. `origin` receives the
/// arrival index of the triple stored at each block slot. `recv` is not
/// read after the scatter and serves as the per-row sort scratch, so the
/// step keeps no buffer beyond the triples, the slab and the slot map.
RowBlockCsr build_row_block(std::vector<MatEntryV>& recv, index_t n,
                            mps::Comm& world, std::vector<nnz_t>& origin,
                            double& work) {
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
  origin.resize(recv.size());
  out.cols.resize(recv.size());
  out.vals.resize(recv.size());
  for (std::size_t k = 0; k < recv.size(); ++k) {
    const auto& e = recv[k];
    const auto slot = static_cast<std::size_t>(
        out.row_ptr[static_cast<std::size_t>(e.row - out.lo) + 1]++);
    out.cols[slot] = e.col;
    out.vals[slot] = e.val;
    origin[slot] = static_cast<nnz_t>(k);
  }
  out.row_ptr.pop_back();

  // Column sort per row: the row's (origin, col, val) triples go through
  // the front of `recv` (the row field carries the origin), are sorted by
  // column and written back.
  work = 2.0 * static_cast<double>(recv.size());
  for (std::size_t r = 0; r < nloc; ++r) {
    const auto b = static_cast<std::size_t>(out.row_ptr[r]);
    const auto d = static_cast<std::size_t>(out.row_ptr[r + 1]) - b;
    work += static_cast<double>(d) * std::log2(static_cast<double>(d) + 1.0);
    for (std::size_t k = 0; k < d; ++k) {
      recv[k] = MatEntryV{origin[b + k], out.cols[b + k], out.vals[b + k]};
    }
    std::sort(recv.begin(), recv.begin() + static_cast<std::ptrdiff_t>(d),
              [](const MatEntryV& x, const MatEntryV& y) {
                return x.col < y.col;
              });
    for (std::size_t k = 0; k < d; ++k) {
      out.cols[b + k] = recv[k].col;
      out.vals[b + k] = recv[k].val;
      origin[b + k] = recv[k].row;
    }
  }
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
  // permuted bandwidth and the window digest fold into the same pass.
  // Staging lives in the
  // workspace so a repeat pattern (same routing, same sizes) re-runs this
  // exchange with zero reallocations — the serving layer's steady state.
  auto& send = grid.workspace().mat_route(static_cast<std::size_t>(p));
  std::uint64_t block_nnz = 0;
  index_t local_bw = 0;
  std::uint64_t digest = 0;
  for (index_t gr = row_lo; gr < row_hi; ++gr) {
    const auto cols = a.row(gr);
    const auto first = std::lower_bound(cols.begin(), cols.end(), col_lo);
    if (first == cols.end() || *first >= col_hi) continue;
    const index_t nr = label_of(gr);
    auto& deal = send[static_cast<std::size_t>(row_block_owner(n, p, nr))];
    for (auto it = first; it != cols.end() && *it < col_hi; ++it) {
      const index_t nc = label_of(*it);
      local_bw = std::max(local_bw, nr > nc ? nr - nc : nc - nr);
      digest = window_digest_step(digest, gr, *it);
      const double val =
          has_values
              ? a.row_values(gr)[static_cast<std::size_t>(it - cols.begin())]
              : 0.0;
      deal.push_back(MatEntryV{nr, nc, val});
      ++block_nnz;
    }
  }
  // Size the value-only staging of the plan hits this route enables.
  auto& values = grid.workspace().value_route(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    values[static_cast<std::size_t>(d)].reserve(
        send[static_cast<std::size_t>(d)].size());
  }
  auto recv = world.alltoallv(send);
  // The in-flight peak: the input block as a coordinate stream (a real
  // implementation holds exactly the triples it is about to route — no
  // CSC column pointer, so no O(n/q) term), the staged sends, and the
  // received slab triples. Everything is O(nnz/p) for a balanced block.
  // The staging capacity is deliberately NOT released: it is workspace
  // state, warm for the next request with this routing shape.
  world.note_resident(3 * block_nnz + 3 * block_nnz + 3 * recv.size());

  double assembly_work = 0.0;
  OneShotRowBlocks out;
  out.block = build_row_block(recv, n, world, out.origin, assembly_work);
  out.window_digest = digest;
  // The received triples are dead once assembled; the slot map takes
  // their place on the ledger.
  std::vector<MatEntryV>().swap(recv);
  out.bandwidth = world.allreduce(
      local_bw, [](index_t x, index_t y) { return x > y ? x : y; });
  world.charge_compute(static_cast<double>(block_nnz) + assembly_work);
  world.note_resident(3 * block_nnz + out.block.resident_elements() +
                      out.origin.size());
  return out;
}

std::vector<double> route_row_block_values(const sparse::CsrMatrix& a,
                                           const std::vector<index_t>& labels,
                                           ProcGrid2D& grid) {
  const index_t n = a.n();
  DRCM_CHECK(labels.size() == static_cast<std::size_t>(n),
             "labels must cover every vertex");
  DRCM_CHECK(a.has_values() || a.nnz() == 0,
             "route_row_block_values feeds the solver: "
             "the matrix must carry values");
  auto& world = grid.world();
  const int p = world.size();
  const VectorDist dist(n, grid.q());
  const index_t row_lo = dist.chunk_lo(grid.row());
  const index_t row_hi = dist.chunk_lo(grid.row() + 1);
  const index_t col_lo = dist.chunk_lo(grid.col());
  const index_t col_hi = dist.chunk_lo(grid.col() + 1);

  // The walk of redistribute_to_row_blocks, one label lookup per row: a
  // whole original row shares one destination, and only the values move.
  auto& send = grid.workspace().value_route(static_cast<std::size_t>(p));
  std::uint64_t block_nnz = 0;
  for (index_t gr = row_lo; gr < row_hi; ++gr) {
    const auto cols = a.row(gr);
    const auto first = std::lower_bound(cols.begin(), cols.end(), col_lo);
    if (first == cols.end() || *first >= col_hi) continue;
    const auto last = std::lower_bound(first, cols.end(), col_hi);
    const index_t nr = labels[static_cast<std::size_t>(gr)];
    DRCM_CHECK(nr >= 0 && nr < n, "label out of range");
    const auto vals = a.row_values(gr);
    auto& deal = send[static_cast<std::size_t>(row_block_owner(n, p, nr))];
    deal.insert(deal.end(), vals.begin() + (first - cols.begin()),
                vals.begin() + (last - cols.begin()));
    block_nnz += static_cast<std::uint64_t>(last - first);
  }
  auto recv = world.alltoallv(send);
  world.note_resident(block_nnz + block_nnz + recv.size());
  world.charge_compute(static_cast<double>(block_nnz));
  return recv;
}

std::vector<double> redistribute_to_row_slab(
    const DistDenseVecD& v, const std::vector<index_t>& labels,
    mps::Comm& world, DistWorkspace* ws, std::vector<index_t>* slot_out) {
  DRCM_CHECK(labels.size() == static_cast<std::size_t>(v.dist().n()),
             "labels must cover every element");
  const index_t n = v.dist().n();
  const int p = world.size();
  DRCM_CHECK(v.dist().q() * v.dist().q() == p,
             "redistribute_to_row_slab needs the grid's world comm");

  std::vector<std::vector<VecEntryD>> local_send;
  if (!ws) local_send.resize(static_cast<std::size_t>(p));
  std::vector<std::vector<VecEntryD>>& send =
      ws ? ws->vecd_route(static_cast<std::size_t>(p)) : local_send;
  for (index_t g = v.lo(); g < v.hi(); ++g) {
    const index_t ng = labels[static_cast<std::size_t>(g)];
    DRCM_CHECK(ng >= 0 && ng < n, "label out of range");
    send[static_cast<std::size_t>(row_block_owner(n, p, ng))].push_back(
        VecEntryD{ng, v.get(g)});
  }
  if (ws) {
    // Size the value-only staging of the plan hits this route enables.
    auto& values = ws->value_route(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      values[static_cast<std::size_t>(d)].reserve(
          send[static_cast<std::size_t>(d)].size());
    }
  }
  const auto recv = world.alltoallv(send);
  const index_t lo = row_block_lo(n, p, world.rank());
  const index_t hi = row_block_lo(n, p, world.rank() + 1);
  std::vector<double> slab(static_cast<std::size_t>(hi - lo), 0.0);
  DRCM_CHECK(recv.size() == slab.size(),
             "permutation must re-own every element exactly once");
  if (slot_out) slot_out->resize(recv.size());
  for (std::size_t k = 0; k < recv.size(); ++k) {
    const auto& e = recv[k];
    // Receive-path range check (always on): the index addresses my slab.
    DRCM_CHECK(e.idx >= lo && e.idx < hi,
               "received element outside the owned row block");
    slab[static_cast<std::size_t>(e.idx - lo)] = e.val;
    if (slot_out) (*slot_out)[k] = e.idx - lo;
  }
  world.charge_compute(static_cast<double>(v.local_size()) +
                       static_cast<double>(recv.size()));
  return slab;
}

std::vector<double> route_to_row_slab(const DistDenseVecD& v,
                                      const std::vector<index_t>& labels,
                                      mps::Comm& world,
                                      std::span<const index_t> slot,
                                      DistWorkspace& ws) {
  DRCM_CHECK(labels.size() == static_cast<std::size_t>(v.dist().n()),
             "labels must cover every element");
  const index_t n = v.dist().n();
  const int p = world.size();
  DRCM_CHECK(v.dist().q() * v.dist().q() == p,
             "route_to_row_slab needs the grid's world comm");

  auto& send = ws.value_route(static_cast<std::size_t>(p));
  for (index_t g = v.lo(); g < v.hi(); ++g) {
    const index_t ng = labels[static_cast<std::size_t>(g)];
    DRCM_CHECK(ng >= 0 && ng < n, "label out of range");
    send[static_cast<std::size_t>(row_block_owner(n, p, ng))].push_back(
        v.get(g));
  }
  const auto recv = world.alltoallv(send);
  const index_t lo = row_block_lo(n, p, world.rank());
  const index_t hi = row_block_lo(n, p, world.rank() + 1);
  std::vector<double> slab(static_cast<std::size_t>(hi - lo), 0.0);
  DRCM_CHECK(recv.size() == slab.size() && slot.size() == slab.size(),
             "the rhs slot map must place every received element");
  for (std::size_t k = 0; k < recv.size(); ++k) {
    // The slot map is this rank's own plan, but its offsets still index
    // the slab: the range check stays on.
    DRCM_CHECK(slot[k] >= 0 && slot[k] < hi - lo,
               "rhs slot outside the owned row block");
    slab[static_cast<std::size_t>(slot[k])] = recv[k];
  }
  world.charge_compute(static_cast<double>(v.local_size()) +
                       static_cast<double>(recv.size()));
  return slab;
}

}  // namespace drcm::dist
