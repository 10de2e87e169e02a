#include "solver/dist_cg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include "solver/block_jacobi.hpp"
#include "sparse/coo.hpp"

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
  // peer rank, then by the order of my distinct remote indices per peer).
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

/// Builds the split system from ANY source of the owned rows: `cols_of(g)`
/// / `vals_of(g)` return the global column ids / values of global row g for
/// g in [lo, hi). Both the replicated-CSR and the distributed row-block
/// overloads funnel through here, so their halo tables, column splits and
/// slot numbering are identical by construction.
template <class ColsOf, class ValsOf>
LocalSystem build_local_system(mps::Comm& world, index_t n, ColsOf&& cols_of,
                               ValsOf&& vals_of) {
  const int p = world.size();
  const int r = world.rank();
  LocalSystem sys;
  sys.lo = row_block_lo(n, p, r);
  sys.hi = row_block_lo(n, p, r + 1);

  // Distinct remote indices, grouped by owner, in ascending index order.
  std::vector<std::vector<index_t>> need(static_cast<std::size_t>(p));
  std::unordered_map<index_t, index_t> slot_of;
  for (index_t i = sys.lo; i < sys.hi; ++i) {
    for (const index_t j : cols_of(i)) {
      if (j < sys.lo || j >= sys.hi) {
        if (slot_of.emplace(j, -1).second) {
          need[static_cast<std::size_t>(row_block_owner(n, p, j))].push_back(j);
        }
      }
    }
  }
  index_t slot = 0;
  for (auto& group : need) {
    std::sort(group.begin(), group.end());
    for (const index_t j : group) slot_of[j] = slot++;
  }
  sys.halo_size = slot;

  // Split rows into local/remote halves.
  const index_t nloc = sys.hi - sys.lo;
  sys.lptr.assign(static_cast<std::size_t>(nloc) + 1, 0);
  sys.rptr.assign(static_cast<std::size_t>(nloc) + 1, 0);
  for (index_t i = sys.lo; i < sys.hi; ++i) {
    const auto cols = cols_of(i);
    const auto vals = vals_of(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] >= sys.lo && cols[k] < sys.hi) {
        sys.lcol.push_back(cols[k] - sys.lo);
        sys.lval.push_back(vals[k]);
      } else {
        sys.rslot.push_back(slot_of[cols[k]]);
        sys.rval.push_back(vals[k]);
      }
    }
    sys.lptr[static_cast<std::size_t>(i - sys.lo) + 1] =
        static_cast<nnz_t>(sys.lcol.size());
    sys.rptr[static_cast<std::size_t>(i - sys.lo) + 1] =
        static_cast<nnz_t>(sys.rslot.size());
  }

  // Tell each owner which entries I need; receive what I must send.
  std::vector<std::vector<index_t>> requests(need.begin(), need.end());
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

/// Per-rank diagonal block preconditioner: my rows restricted to my
/// columns, ILU(0)-factored (BlockJacobi with a single block). Shared by
/// both overloads, entry order identical to the replicated build.
template <class ColsOf, class ValsOf>
std::unique_ptr<BlockJacobi> build_block_preconditioner(index_t lo, index_t hi,
                                                        ColsOf&& cols_of,
                                                        ValsOf&& vals_of) {
  const auto nloc = hi - lo;
  if (nloc <= 0) return nullptr;
  sparse::CooBuilder blk(nloc);
  for (index_t i = lo; i < hi; ++i) {
    const auto cols = cols_of(i);
    const auto vals = vals_of(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] >= lo && cols[k] < hi) {
        blk.add(i - lo, cols[k] - lo, vals[k]);
      }
    }
  }
  return std::make_unique<BlockJacobi>(blk.to_csr(true), 1);
}

/// One distributed SpMV: halo exchange + split local multiply.
void dist_spmv(mps::Comm& world, const LocalSystem& sys,
               std::span<const double> x_local, std::vector<double>& halo,
               std::span<double> y_local) {
  const int p = world.size();
  std::vector<std::vector<double>> send(static_cast<std::size_t>(p));
  for (int peer = 0; peer < p; ++peer) {
    for (const index_t lid : sys.send_local_ids[static_cast<std::size_t>(peer)]) {
      send[static_cast<std::size_t>(peer)].push_back(
          x_local[static_cast<std::size_t>(lid)]);
    }
  }
  const auto recv = world.alltoallv(send);
  DRCM_CHECK(static_cast<index_t>(recv.size()) == sys.halo_size,
             "halo exchange size mismatch");
  halo.assign(recv.begin(), recv.end());

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

/// The shared PCG iteration: local state only, one halo'd SpMV and two
/// allreduce dots per iteration. `x_out` receives this rank's solution
/// slab — replication, when a caller wants it, is gather_solution's job.
CgResult run_pcg(mps::Comm& world, index_t n, const LocalSystem& sys,
                 const BlockJacobi* pre, std::span<const double> b_local,
                 std::vector<double>& x_out, const CgOptions& options) {
  (void)n;
  const auto nloc = static_cast<std::size_t>(sys.hi - sys.lo);
  DRCM_CHECK(b_local.size() == nloc, "rhs block size mismatch");

  std::vector<double> x_local(nloc, 0.0), r(nloc), z(nloc), pdir(nloc),
      ap(nloc), halo;
  for (std::size_t i = 0; i < nloc; ++i) r[i] = b_local[i];
  const double bnorm = std::sqrt(dist_dot(world, r, r));

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

  const auto apply_pre = [&](std::span<const double> in, std::span<double> out) {
    if (pre) {
      pre->apply(in, out);
      world.charge_compute(static_cast<double>(2 * nloc));
    } else {
      std::copy(in.begin(), in.end(), out.begin());
    }
  };

  apply_pre(r, z);
  pdir.assign(z.begin(), z.end());
  double rz = dist_dot(world, r, z);

  // Every exit decision below is driven by allreduce-replicated scalars
  // (residual norm, p'Ap, r'z), so all ranks branch identically and the
  // collective sequence never diverges — a structured status, never a
  // mismatch or a deadlock.
  double best_residual = std::numeric_limits<double>::infinity();
  int since_improvement = 0;
  bool done = false;
  for (int it = 0; it < options.max_iterations && !done; ++it) {
    res.relative_residual = std::sqrt(dist_dot(world, r, r)) / bnorm;
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
    dist_spmv(world, sys, pdir, halo, ap);
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
    const double rz_next = dist_dot(world, r, z);
    if (!std::isfinite(rz_next)) {
      res.status = SolveStatus::kNanInf;
      done = true;
      break;
    }
    const double beta = rz_next / rz;
    for (std::size_t i = 0; i < nloc; ++i) pdir[i] = z[i] + beta * pdir[i];
    world.charge_compute(static_cast<double>(nloc));
    rz = rz_next;
    res.iterations = it + 1;
  }
  if (!done) {
    res.relative_residual = std::sqrt(dist_dot(world, r, r)) / bnorm;
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

  const auto cols_of = [&](index_t i) { return a.row(i); };
  const auto vals_of = [&](index_t i) { return a.row_values(i); };
  const auto sys = build_local_system(world, a.n(), cols_of, vals_of);
  std::unique_ptr<BlockJacobi> pre;
  if (precondition) {
    pre = build_block_preconditioner(sys.lo, sys.hi, cols_of, vals_of);
  }
  // The replicated path's ledger entry: every rank holds the FULL matrix
  // (row_ptr + cols + values) plus the replicated rhs next to its local
  // system — the O(nnz) footprint the distributed overload eliminates.
  world.note_resident(static_cast<std::uint64_t>(a.n() + 1) +
                      2 * static_cast<std::uint64_t>(a.nnz()) + b.size() +
                      sys.resident_elements());
  const auto b_local =
      b.subspan(static_cast<std::size_t>(sys.lo),
                static_cast<std::size_t>(sys.hi - sys.lo));
  std::vector<double> x_local;
  const auto res = run_pcg(world, a.n(), sys, pre.get(), b_local, x_local,
                           options);
  // This overload's contract stays replicated; the extra O(n) copy is now
  // explicit AND charged (it used to ride the ledger for free).
  x = gather_solution(world, x_local, a.n());
  world.note_resident(static_cast<std::uint64_t>(a.n() + 1) +
                      2 * static_cast<std::uint64_t>(a.nnz()) + b.size() +
                      sys.resident_elements() + x.size());
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

  const auto cols_of = [&](index_t i) { return a.row(i); };
  const auto vals_of = [&](index_t i) { return a.row_values(i); };
  const auto sys = build_local_system(world, a.n, cols_of, vals_of);
  std::unique_ptr<BlockJacobi> pre;
  if (precondition) {
    pre = build_block_preconditioner(sys.lo, sys.hi, cols_of, vals_of);
  }
  // Rank-local footprint only: my row block, my split system, my rhs slab
  // and my solution slab — O(nnz/p + n/p), never the full CSR and no
  // replicated solution (that O(n) tail is gather_solution, opt-in).
  world.note_resident(a.resident_elements() + sys.resident_elements() +
                      b_local.size() +
                      static_cast<std::uint64_t>(a.local_rows()));
  return run_pcg(world, a.n, sys, pre.get(), b_local, x_local, options);
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
