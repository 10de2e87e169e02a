#include "solver/dist_cg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sparse/permute.hpp"

namespace drcm::solver {

namespace {

// The 1D slicing rule lives in dist/row_block.hpp (row_block_lo /
// row_block_owner) so this file and redistribute_to_row_blocks can never
// disagree on block bounds or halo owners.
using dist::row_block_lo;
using dist::row_block_owner;

/// Elements a rank holds while solve_with_plan runs on `plan`: the plan,
/// the split values, the ILU(0) factor when preconditioned, and the rhs
/// and solution slabs.
std::uint64_t numeric_resident(const SolvePlan& plan, bool precondition) {
  return plan.resident_elements() +
         static_cast<std::uint64_t>(plan.entries()) +
         (precondition ? plan.ilu.src.size() : 0) +
         2 * static_cast<std::uint64_t>(plan.local_rows());
}

/// One distributed SpMV: halo exchange + split local multiply over the
/// plan's structure and the split values `vals` (local half first). `send`
/// is the caller's per-peer staging, kept across iterations so
/// steady-state calls reuse its capacity.
void dist_spmv(mps::Comm& world, const SolvePlan& sys,
               std::span<const double> vals, std::span<const double> x_local,
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

  const index_t nloc = sys.local_rows();
  const auto rval = vals.subspan(sys.lcol.size());
  for (index_t i = 0; i < nloc; ++i) {
    double sum = 0.0;
    for (nnz_t k = sys.lptr[static_cast<std::size_t>(i)];
         k < sys.lptr[static_cast<std::size_t>(i) + 1]; ++k) {
      sum += vals[static_cast<std::size_t>(k)] *
             x_local[static_cast<std::size_t>(sys.lcol[static_cast<std::size_t>(k)])];
    }
    for (nnz_t k = sys.rptr[static_cast<std::size_t>(i)];
         k < sys.rptr[static_cast<std::size_t>(i) + 1]; ++k) {
      sum += rval[static_cast<std::size_t>(k)] *
             halo[static_cast<std::size_t>(sys.rslot[static_cast<std::size_t>(k)])];
    }
    y_local[static_cast<std::size_t>(i)] = sum;
  }
  world.charge_compute(static_cast<double>(vals.size()));
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
/// r'r being the NEXT iteration's residual norm. `factor` holds the
/// ILU(0) values over sys.ilu, or is null for plain CG. `x_out` receives
/// this rank's solution slab — replication, when a driver wants it, is
/// assemble_solution's job, outside the ranks.
CgResult run_pcg(mps::Comm& world, const SolvePlan& sys,
                 std::span<const double> vals,
                 const std::vector<double>* factor, int shifted_pivots,
                 std::span<const double> b_local, std::vector<double>& x_out,
                 const CgOptions& options) {
  const auto nloc = static_cast<std::size_t>(sys.local_rows());
  DRCM_CHECK(b_local.size() == nloc, "rhs block size mismatch");

  std::vector<double> x_local(nloc, 0.0), r(nloc), z(nloc), pdir(nloc),
      ap(nloc), halo;
  std::vector<std::vector<double>> halo_send;
  for (std::size_t i = 0; i < nloc; ++i) r[i] = b_local[i];

  const auto apply_pre = [&](std::span<const double> in, std::span<double> out) {
    if (factor) {
      ilu0_solve(sys.ilu, *factor, in, out);
      world.charge_compute(static_cast<double>(2 * nloc));
    } else {
      std::copy(in.begin(), in.end(), out.begin());
    }
  };

  apply_pre(r, z);
  auto [rr, rz] = dist_dot_pair(world, r, z);
  const double bnorm = std::sqrt(rr);

  CgResult res;
  if (factor) res.shifted_pivots = shifted_pivots;
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
    dist_spmv(world, sys, vals, pdir, halo_send, halo, ap);
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

std::uint64_t SolvePlan::resident_elements() const {
  std::uint64_t total = value_slot.size() + lptr.size() + lcol.size() +
                        rptr.size() + rslot.size() +
                        static_cast<std::uint64_t>(halo_size) +
                        ilu.resident_elements() + rhs_slot.size();
  for (const auto& ids : send_local_ids) total += ids.size();
  return total;
}

SolvePlan build_solve_plan(mps::Comm& world, const dist::RowBlockCsr& a,
                           std::span<const nnz_t> origin) {
  const int p = world.size();
  DRCM_CHECK(a.lo == row_block_lo(a.n, p, world.rank()) &&
                 a.hi == row_block_lo(a.n, p, world.rank() + 1),
             "row block does not match this world's 1D slicing");
  DRCM_CHECK(origin.empty() || origin.size() == a.cols.size(),
             "origin map must cover every entry of the row block");
  mps::PhaseScope scope(world, mps::Phase::kSolver);
  SolvePlan sys;
  sys.n = a.n;
  sys.lo = a.lo;
  sys.hi = a.hi;
  sys.ranks = p;
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

  // Split rows into local/remote halves, recording where each input value
  // lands: the local half's slots first, the remote half's after them.
  const index_t nloc = a.local_rows();
  const auto nl = static_cast<nnz_t>(a.cols.size()) -
                  static_cast<nnz_t>(std::count_if(a.cols.begin(),
                                                   a.cols.end(), is_remote));
  sys.value_slot.resize(a.cols.size());
  sys.lptr.assign(static_cast<std::size_t>(nloc) + 1, 0);
  sys.rptr.assign(static_cast<std::size_t>(nloc) + 1, 0);
  for (index_t i = 0; i < nloc; ++i) {
    for (nnz_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = a.cols[static_cast<std::size_t>(k)];
      const nnz_t at =
          origin.empty() ? k : origin[static_cast<std::size_t>(k)];
      DRCM_CHECK(at >= 0 && at < static_cast<nnz_t>(sys.value_slot.size()),
                 "origin map outside the row block's entries");
      nnz_t& slot = sys.value_slot[static_cast<std::size_t>(at)];
      if (is_remote(j)) {
        slot = nl + static_cast<nnz_t>(sys.rslot.size());
        sys.rslot.push_back(slot_of(j));
      } else {
        slot = static_cast<nnz_t>(sys.lcol.size());
        sys.lcol.push_back(j - sys.lo);
      }
    }
    sys.lptr[static_cast<std::size_t>(i) + 1] =
        static_cast<nnz_t>(sys.lcol.size());
    sys.rptr[static_cast<std::size_t>(i) + 1] =
        static_cast<nnz_t>(sys.rslot.size());
  }
  sys.ilu = ilu0_pattern(sys.lptr, sys.lcol, 0);

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

CgResult solve_with_plan(mps::Comm& world, const SolvePlan& plan,
                         std::span<const double> values,
                         std::span<const double> b_local,
                         std::vector<double>& x_local, bool precondition,
                         const CgOptions& options,
                         std::uint64_t held_alongside) {
  DRCM_CHECK(plan.ranks == world.size() &&
                 plan.lo == row_block_lo(plan.n, world.size(), world.rank()) &&
                 plan.hi == row_block_lo(plan.n, world.size(), world.rank() + 1),
             "solve plan does not match this world's 1D slicing");
  DRCM_CHECK(values.size() == plan.value_slot.size(),
             "solve plan expects exactly one value per planned entry");
  mps::PhaseScope scope(world, mps::Phase::kSolver);

  // The numeric placement: one scatter through the receive-slot map.
  std::vector<double> vals(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) {
    vals[static_cast<std::size_t>(plan.value_slot[k])] = values[k];
  }
  std::vector<double> factor;
  int shifted = 0;
  if (precondition) factor = ilu0_factor(plan.ilu, vals, &shifted);
  world.note_resident(held_alongside + numeric_resident(plan, precondition));
  return run_pcg(world, plan, vals, precondition ? &factor : nullptr, shifted,
                 b_local, x_local, options);
}

CgResult dist_pcg(mps::Comm& world, const dist::RowBlockCsr& a,
                  std::span<const double> b_local,
                  std::vector<double>& x_local, bool precondition,
                  const CgOptions& options) {
  // Rank-local footprint only: my row block next to its solve — O(nnz/p +
  // n/p), never the full CSR and no replicated solution.
  const auto plan = build_solve_plan(world, a);
  return solve_with_plan(world, plan, a.vals, b_local, x_local, precondition,
                         options, a.resident_elements());
}

std::vector<double> assemble_solution(
    const std::vector<std::vector<double>>& slabs,
    const std::vector<index_t>& labels) {
  std::vector<double> x_perm;
  x_perm.reserve(labels.size());
  for (const auto& slab : slabs) {
    x_perm.insert(x_perm.end(), slab.begin(), slab.end());
  }
  DRCM_CHECK(x_perm.size() == labels.size(),
             "solution slabs must cover every permuted row exactly once");
  std::vector<double> x(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    x[v] = x_perm[static_cast<std::size_t>(labels[v])];
  }
  return x;
}

DistCgRun run_dist_pcg(int nranks, const sparse::CsrMatrix& a,
                       std::span<const double> b, bool precondition,
                       const CgOptions& options,
                       const mps::MachineParams& machine) {
  DRCM_CHECK(nranks >= 1, "need at least one rank");
  DRCM_CHECK(a.has_values(), "CG needs matrix values");
  DRCM_CHECK(b.size() == static_cast<std::size_t>(a.n()), "rhs size mismatch");
  // Each rank's row block is sliced from the replicated fixture before
  // launch, as every run_* launcher treats its fixture.
  std::vector<dist::RowBlockCsr> blocks(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto& block = blocks[static_cast<std::size_t>(r)];
    block.n = a.n();
    block.lo = row_block_lo(a.n(), nranks, r);
    block.hi = row_block_lo(a.n(), nranks, r + 1);
    block.row_ptr.push_back(0);
    for (index_t i = block.lo; i < block.hi; ++i) {
      const auto cols = a.row(i);
      const auto vals = a.row_values(i);
      block.cols.insert(block.cols.end(), cols.begin(), cols.end());
      block.vals.insert(block.vals.end(), vals.begin(), vals.end());
      block.row_ptr.push_back(static_cast<nnz_t>(block.cols.size()));
    }
  }
  DistCgRun run;
  std::vector<std::vector<double>> slabs(static_cast<std::size_t>(nranks));
  run.report = mps::Runtime::run(
      nranks,
      [&](mps::Comm& world) {
        const auto& block = blocks[static_cast<std::size_t>(world.rank())];
        const auto b_local =
            b.subspan(static_cast<std::size_t>(block.lo),
                      static_cast<std::size_t>(block.local_rows()));
        const auto res =
            dist_pcg(world, block, b_local,
                     slabs[static_cast<std::size_t>(world.rank())],
                     precondition, options);
        if (world.rank() == 0) run.result = res;
      },
      machine);
  run.x = assemble_solution(slabs, sparse::identity_permutation(a.n()));
  return run;
}

}  // namespace drcm::solver
