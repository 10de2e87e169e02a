#include "solver/dist_cg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "solver/block_jacobi.hpp"

namespace drcm::solver {

namespace {

// The 1D slicing rule lives in dist/row_block.hpp (row_block_lo /
// row_block_owner) so this file and redistribute_to_row_blocks can never
// disagree on block bounds or halo owners.
using dist::row_block_lo;
using dist::row_block_owner;
using sparse::CsrMatrix;

/// Per-rank solver state: the local row block split into local-column and
/// remote-column halves, plus the halo routing tables.
struct LocalSystem {
  index_t lo = 0, hi = 0;
  // Local half: columns inside [lo, hi), stored with local column ids.
  std::vector<nnz_t> lptr;
  std::vector<index_t> lcol;
  std::vector<double> lval;
  // Remote half: columns outside, remapped to halo slots.
  std::vector<nnz_t> rptr;
  std::vector<index_t> rslot;
  std::vector<double> rval;
  // Halo: for each peer rank, which of my x entries it needs (send), and
  // how many entries I receive from each peer (the slots are ordered by
  // peer rank, then ascending by global index within each peer).
  std::vector<std::vector<index_t>> send_local_ids;  // per peer: local ids
  index_t halo_size = 0;

  std::uint64_t resident_elements() const {
    std::uint64_t total = lptr.size() + lcol.size() + lval.size() +
                          rptr.size() + rslot.size() + rval.size() +
                          static_cast<std::uint64_t>(halo_size);
    for (const auto& ids : send_local_ids) total += ids.size();
    return total;
  }
};

/// Builds the split system of this rank's row block. Both dist_pcg
/// overloads funnel through here (the replicated one slices its rows into
/// a RowBlockCsr first), so their halo tables, column splits and slot
/// numbering are identical by construction.
LocalSystem build_local_system(mps::Comm& world, const dist::RowBlockCsr& a) {
  const int p = world.size();
  LocalSystem sys;
  sys.lo = a.lo;
  sys.hi = a.hi;
  const auto is_remote = [&](index_t j) { return j < sys.lo || j >= sys.hi; };

  // Distinct remote indices, sorted. Owners hold contiguous ascending
  // ranges, so the sorted list is already grouped by owner in rank order
  // and ascending within each group: a remote column's halo slot is its
  // position in this list.
  std::vector<index_t> remote;
  for (const index_t j : a.cols) {
    if (is_remote(j)) remote.push_back(j);
  }
  std::sort(remote.begin(), remote.end());
  remote.erase(std::unique(remote.begin(), remote.end()), remote.end());
  sys.halo_size = static_cast<index_t>(remote.size());
  const auto slot_of = [&](index_t j) {
    return static_cast<index_t>(
        std::lower_bound(remote.begin(), remote.end(), j) - remote.begin());
  };

  // Split rows into local/remote halves.
  const index_t nloc = a.local_rows();
  sys.lptr.assign(static_cast<std::size_t>(nloc) + 1, 0);
  sys.rptr.assign(static_cast<std::size_t>(nloc) + 1, 0);
  for (index_t i = sys.lo; i < sys.hi; ++i) {
    const auto cols = a.row(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (is_remote(cols[k])) {
        sys.rslot.push_back(slot_of(cols[k]));
        sys.rval.push_back(vals[k]);
      } else {
        sys.lcol.push_back(cols[k] - sys.lo);
        sys.lval.push_back(vals[k]);
      }
    }
    sys.lptr[static_cast<std::size_t>(i - sys.lo) + 1] =
        static_cast<nnz_t>(sys.lcol.size());
    sys.rptr[static_cast<std::size_t>(i - sys.lo) + 1] =
        static_cast<nnz_t>(sys.rslot.size());
  }

  // Tell each owner which entries I need; receive what I must send.
  std::vector<std::vector<index_t>> requests(static_cast<std::size_t>(p));
  for (const index_t j : remote) {
    requests[static_cast<std::size_t>(row_block_owner(a.n, p, j))].push_back(j);
  }
  std::vector<std::int64_t> counts;
  const auto wanted = world.alltoallv(requests, &counts);
  sys.send_local_ids.resize(static_cast<std::size_t>(p));
  std::size_t pos = 0;
  for (int peer = 0; peer < p; ++peer) {
    auto& ids = sys.send_local_ids[static_cast<std::size_t>(peer)];
    for (std::int64_t k = 0; k < counts[static_cast<std::size_t>(peer)]; ++k) {
      // Receive-path range check (always on): the requested index arrived
      // over the wire and becomes an x_local offset on every SpMV.
      DRCM_CHECK(wanted[pos] >= sys.lo && wanted[pos] < sys.hi,
                 "halo request outside the owned row block");
      ids.push_back(wanted[pos++] - sys.lo);
    }
  }
  return sys;
}

/// One distributed SpMV: halo exchange + split local multiply. `send` is
/// the caller's per-peer staging, kept across iterations so steady-state
/// calls reuse its capacity.
void dist_spmv(mps::Comm& world, const LocalSystem& sys,
               std::span<const double> x_local,
               std::vector<std::vector<double>>& send,
               std::vector<double>& halo, std::span<double> y_local) {
  const int p = world.size();
  send.resize(static_cast<std::size_t>(p));
  for (int peer = 0; peer < p; ++peer) {
    auto& out = send[static_cast<std::size_t>(peer)];
    out.clear();
    for (const index_t lid : sys.send_local_ids[static_cast<std::size_t>(peer)]) {
      out.push_back(x_local[static_cast<std::size_t>(lid)]);
    }
  }
  halo = world.alltoallv(send);
  DRCM_CHECK(static_cast<index_t>(halo.size()) == sys.halo_size,
             "halo exchange size mismatch");

  const index_t nloc = sys.hi - sys.lo;
  for (index_t i = 0; i < nloc; ++i) {
    double sum = 0.0;
    for (nnz_t k = sys.lptr[static_cast<std::size_t>(i)];
         k < sys.lptr[static_cast<std::size_t>(i) + 1]; ++k) {
      sum += sys.lval[static_cast<std::size_t>(k)] *
             x_local[static_cast<std::size_t>(sys.lcol[static_cast<std::size_t>(k)])];
    }
    for (nnz_t k = sys.rptr[static_cast<std::size_t>(i)];
         k < sys.rptr[static_cast<std::size_t>(i) + 1]; ++k) {
      sum += sys.rval[static_cast<std::size_t>(k)] *
             halo[static_cast<std::size_t>(sys.rslot[static_cast<std::size_t>(k)])];
    }
    y_local[static_cast<std::size_t>(i)] = sum;
  }
  world.charge_compute(static_cast<double>(sys.lval.size() + sys.rval.size()));
}

double dist_dot(mps::Comm& world, std::span<const double> a,
                std::span<const double> b) {
  double local = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) local += a[i] * b[i];
  world.charge_compute(static_cast<double>(a.size()));
  return world.allreduce(local, [](double x, double y) { return x + y; });
}

/// r'r and r'z reduced together.
struct DotPair {
  double rr = 0.0;
  double rz = 0.0;
};

/// Both dots of the CG recurrence in ONE two-double allreduce. Each local
/// sum runs in the same order as a standalone dist_dot and the fold is
/// componentwise in rank order, so both values are bit-identical to two
/// separate reductions — at one collective instead of two.
DotPair dist_dot_pair(mps::Comm& world, std::span<const double> r,
                      std::span<const double> z) {
  DotPair local;
  for (std::size_t i = 0; i < r.size(); ++i) {
    local.rr += r[i] * r[i];
    local.rz += r[i] * z[i];
  }
  world.charge_compute(static_cast<double>(2 * r.size()));
  return world.allreduce(local, [](const DotPair& x, const DotPair& y) {
    return DotPair{x.rr + y.rr, x.rz + y.rz};
  });
}

/// The shared PCG iteration: local state only. Each iteration is one
/// halo'd SpMV and two allreduces — p'Ap, then r'r and r'z together, the
/// r'r being the NEXT iteration's residual norm. `x_out` receives this
/// rank's solution slab — replication, when a caller wants it, is
/// gather_solution's job.
CgResult run_pcg(mps::Comm& world, const LocalSystem& sys,
                 const BlockJacobi* pre, std::span<const double> b_local,
                 std::vector<double>& x_out, const CgOptions& options) {
  const auto nloc = static_cast<std::size_t>(sys.hi - sys.lo);
  DRCM_CHECK(b_local.size() == nloc, "rhs block size mismatch");

  std::vector<double> x_local(nloc, 0.0), r(nloc), z(nloc), pdir(nloc),
      ap(nloc), halo;
  std::vector<std::vector<double>> halo_send;
  for (std::size_t i = 0; i < nloc; ++i) r[i] = b_local[i];

  const auto apply_pre = [&](std::span<const double> in, std::span<double> out) {
    if (pre) {
      pre->apply(in, out);
      world.charge_compute(static_cast<double>(2 * nloc));
    } else {
      std::copy(in.begin(), in.end(), out.begin());
    }
  };

  apply_pre(r, z);
  auto [rr, rz] = dist_dot_pair(world, r, z);
  const double bnorm = std::sqrt(rr);

  CgResult res;
  if (pre) res.shifted_pivots = pre->shifted_pivots();
  if (bnorm == 0.0) {
    res.converged = true;
    res.status = SolveStatus::kConverged;
    x_out.assign(nloc, 0.0);
    return res;
  }
  if (!std::isfinite(bnorm)) {
    // A NaN/Inf rhs (e.g. a corrupted payload upstream): report instead of
    // iterating on poisoned data. Every rank sees the same allreduced norm,
    // so every rank takes this exit together.
    res.status = SolveStatus::kNanInf;
    x_out = std::move(x_local);
    return res;
  }
  pdir.assign(z.begin(), z.end());

  // Every exit decision below is driven by allreduce-replicated scalars
  // (residual norm, p'Ap, r'z), so all ranks branch identically and the
  // collective sequence never diverges — a structured status, never a
  // mismatch or a deadlock.
  double best_residual = std::numeric_limits<double>::infinity();
  int since_improvement = 0;
  bool done = false;
  for (int it = 0; it < options.max_iterations && !done; ++it) {
    res.relative_residual = std::sqrt(rr) / bnorm;
    if (!std::isfinite(res.relative_residual)) {
      res.status = SolveStatus::kNanInf;
      done = true;
      break;
    }
    if (res.relative_residual <= options.rtol) {
      res.converged = true;
      res.status = SolveStatus::kConverged;
      done = true;
      break;
    }
    if (options.stagnation_window > 0) {
      if (res.relative_residual < 0.999 * best_residual) {
        best_residual = res.relative_residual;
        since_improvement = 0;
      } else if (++since_improvement >= options.stagnation_window) {
        res.status = SolveStatus::kStagnation;
        done = true;
        break;
      }
    }
    dist_spmv(world, sys, pdir, halo_send, halo, ap);
    const double pap = dist_dot(world, pdir, ap);
    if (!std::isfinite(pap)) {
      res.status = SolveStatus::kNanInf;
      done = true;
      break;
    }
    if (pap <= 0.0) {
      res.status = SolveStatus::kBreakdown;
      done = true;
      break;
    }
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < nloc; ++i) {
      x_local[i] += alpha * pdir[i];
      r[i] -= alpha * ap[i];
    }
    world.charge_compute(static_cast<double>(2 * nloc));
    apply_pre(r, z);
    const DotPair next = dist_dot_pair(world, r, z);
    if (!std::isfinite(next.rz)) {
      res.status = SolveStatus::kNanInf;
      done = true;
      break;
    }
    const double beta = next.rz / rz;
    for (std::size_t i = 0; i < nloc; ++i) pdir[i] = z[i] + beta * pdir[i];
    world.charge_compute(static_cast<double>(nloc));
    rr = next.rr;
    rz = next.rz;
    res.iterations = it + 1;
  }
  if (!done) {
    res.relative_residual = std::sqrt(rr) / bnorm;
    res.converged = res.relative_residual <= options.rtol;
    res.status = res.converged ? SolveStatus::kConverged
                               : SolveStatus::kMaxIterations;
  }

  x_out = std::move(x_local);
  return res;
}

}  // namespace

std::vector<double> gather_solution(mps::Comm& world,
                                    std::span<const double> x_local,
                                    index_t n) {
  // Contiguous row blocks concatenate in rank order, so the allgatherv
  // result IS the global vector.
  auto x = world.allgatherv(x_local);
  DRCM_CHECK(x.size() == static_cast<std::size_t>(n),
             "solution gather size mismatch");
  return x;
}

CgResult dist_pcg(mps::Comm& world, const CsrMatrix& a,
                  std::span<const double> b, std::vector<double>& x,
                  bool precondition, const CgOptions& options) {
  DRCM_CHECK(a.has_values(), "CG needs matrix values");
  DRCM_CHECK(b.size() == static_cast<std::size_t>(a.n()), "rhs size mismatch");
  mps::PhaseScope scope(world, mps::Phase::kSolver);

  // Slice my rows out of the replicated matrix, then solve exactly as the
  // distributed overload does.
  dist::RowBlockCsr block;
  block.n = a.n();
  block.lo = row_block_lo(a.n(), world.size(), world.rank());
  block.hi = row_block_lo(a.n(), world.size(), world.rank() + 1);
  block.row_ptr.push_back(0);
  for (index_t i = block.lo; i < block.hi; ++i) {
    const auto cols = a.row(i);
    const auto vals = a.row_values(i);
    block.cols.insert(block.cols.end(), cols.begin(), cols.end());
    block.vals.insert(block.vals.end(), vals.begin(), vals.end());
    block.row_ptr.push_back(static_cast<nnz_t>(block.cols.size()));
  }
  const auto sys = build_local_system(world, block);
  std::optional<BlockJacobi> pre;
  if (precondition) pre.emplace(block);
  // The replicated path's ledger entry: every rank holds the FULL matrix
  // (row_ptr + cols + values) plus the replicated rhs next to its row
  // slice and local system — the O(nnz) footprint the distributed
  // overload eliminates.
  const std::uint64_t held = static_cast<std::uint64_t>(a.n() + 1) +
                             2 * static_cast<std::uint64_t>(a.nnz()) +
                             b.size() + block.resident_elements() +
                             sys.resident_elements();
  world.note_resident(held);
  const auto b_local =
      b.subspan(static_cast<std::size_t>(sys.lo),
                static_cast<std::size_t>(sys.hi - sys.lo));
  std::vector<double> x_local;
  const auto res = run_pcg(world, sys, pre ? &*pre : nullptr, b_local,
                           x_local, options);
  // This overload's contract stays replicated; the extra O(n) copy is now
  // explicit AND charged (it used to ride the ledger for free).
  x = gather_solution(world, x_local, a.n());
  world.note_resident(held + x.size());
  return res;
}

CgResult dist_pcg(mps::Comm& world, const dist::RowBlockCsr& a,
                  std::span<const double> b_local,
                  std::vector<double>& x_local, bool precondition,
                  const CgOptions& options) {
  DRCM_CHECK(a.lo == row_block_lo(a.n, world.size(), world.rank()) &&
                 a.hi == row_block_lo(a.n, world.size(), world.rank() + 1),
             "row block does not match this world's 1D slicing");
  mps::PhaseScope scope(world, mps::Phase::kSolver);

  const auto sys = build_local_system(world, a);
  std::optional<BlockJacobi> pre;
  if (precondition) pre.emplace(a);
  // Rank-local footprint only: my row block, my split system, my rhs slab
  // and my solution slab — O(nnz/p + n/p), never the full CSR and no
  // replicated solution (that O(n) tail is gather_solution, opt-in).
  world.note_resident(a.resident_elements() + sys.resident_elements() +
                      b_local.size() +
                      static_cast<std::uint64_t>(a.local_rows()));
  return run_pcg(world, sys, pre ? &*pre : nullptr, b_local, x_local,
                 options);
}

DistCgRun run_dist_pcg(int nranks, const sparse::CsrMatrix& a,
                       std::span<const double> b, bool precondition,
                       const CgOptions& options,
                       const mps::MachineParams& machine) {
  DistCgRun run;
  run.report = mps::Runtime::run(
      nranks,
      [&](mps::Comm& world) {
        std::vector<double> x;
        const auto res = dist_pcg(world, a, b, x, precondition, options);
        if (world.rank() == 0) {
          run.result = res;
          run.x = std::move(x);
        }
      },
      machine);
  return run;
}

}  // namespace drcm::solver
