// Distributed preconditioned conjugate gradient over the mpsim runtime —
// the PETSc configuration of the paper's Figure 1, executed for real.
//
// Layout: PETSc-style 1D contiguous row blocks (any rank count, no square
// grid needed). Each iteration performs
//   * a halo exchange (alltoallv of exactly the x-entries each rank's
//     off-block columns reference — the communication volume RCM shrinks),
//   * a local SpMV over the split local/remote column structure,
//   * two allreduces: p'Ap, then r'r and r'z as ONE two-double reduction
//     (the r'r is the next iteration's residual norm, so the convergence
//     test costs no collective),
//   * optionally a block Jacobi preconditioner sweep: each rank ILU(0)-
//     factors its own diagonal block (PETSc's default sub-preconditioner),
//     which is exactly one block per process — the preconditioner whose
//     quality depends on the ordering.
// That is 6 barrier crossings per iteration (2 per collective), plus 4 of
// setup: the halo-analysis alltoallv and the first r'r / r'z pair.
//
// All costs are charged to Phase::kSolver, so a run yields measured wall
// time plus modeled alpha-beta time per rank.
#pragma once

#include <span>
#include <vector>

#include "dist/row_block.hpp"
#include "mpsim/runtime.hpp"
#include "solver/cg.hpp"
#include "sparse/csr.hpp"

namespace drcm::solver {

/// SPMD collective: solves A x = b on `world` (A and b replicated on every
/// rank; the matrix is sliced into row blocks internally). Returns the CG
/// statistics; `x` receives the replicated solution on every rank.
CgResult dist_pcg(mps::Comm& world, const sparse::CsrMatrix& a,
                  std::span<const double> b, std::vector<double>& x,
                  bool precondition, const CgOptions& options = {});

/// Same solve on an ALREADY DISTRIBUTED matrix: `a` is this rank's 1D row
/// block (the output of dist::redistribute_to_row_blocks)
/// and `b_local` the rhs entries of the owned rows [a.lo, a.hi). Halo
/// analysis, the local/remote column split and the block-Jacobi ILU(0)
/// factorization are all built from rank-local data — no replicated CSR
/// exists anywhere. Iterations are bit-identical to the replicated overload
/// on the same matrix (that overload slices its rows into a RowBlockCsr and
/// runs this code).
/// `x_local` receives ONLY this rank's solution slab for rows [a.lo, a.hi)
/// — the solve itself never replicates anything; callers that want the
/// O(n) replicated vector opt in explicitly via gather_solution.
CgResult dist_pcg(mps::Comm& world, const dist::RowBlockCsr& a,
                  std::span<const double> b_local,
                  std::vector<double>& x_local, bool precondition,
                  const CgOptions& options = {});

/// The explicit replication step the slab overload no longer performs:
/// allgathers the per-rank solution slabs (contiguous row blocks, so the
/// rank-order concatenation IS the global vector) into a replicated length-n
/// solution. Collective; costs O(n) resident on every rank — callers on the
/// no-gather pipeline should stay on the slab instead.
std::vector<double> gather_solution(mps::Comm& world,
                                    std::span<const double> x_local,
                                    index_t n);

/// Convenience wrapper: launches `nranks` ranks, runs dist_pcg, returns the
/// solution plus the cost report.
struct DistCgRun {
  CgResult result;
  std::vector<double> x;
  mps::SpmdReport report;
};

DistCgRun run_dist_pcg(int nranks, const sparse::CsrMatrix& a,
                       std::span<const double> b, bool precondition,
                       const CgOptions& options = {},
                       const mps::MachineParams& machine = {});

}  // namespace drcm::solver
