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
// That is 3 barrier crossings per iteration (1 per collective), plus 1 of
// setup for the first r'r / r'z pair.
//
// The solve is split in two halves (SuperLU_DIST's SamePattern reuse,
// applied to block-Jacobi CG). The SYMBOLIC half, a per-rank SolvePlan,
// depends on the pattern only: where each arriving value lands in the
// split local system, the halo tables (one alltoallv of halo requests, 1
// crossing) and the ILU(0) structure. The NUMERIC half places one value
// per entry through the plan, factors ILU(0) and iterates. A repeated
// pattern keeps its plan and pays only the numeric half.
//
// All costs are charged to Phase::kSolver, so a run yields measured wall
// time plus modeled alpha-beta time per rank.
#pragma once

#include <span>
#include <vector>

#include "dist/row_block.hpp"
#include "mpsim/runtime.hpp"
#include "solver/block_jacobi.hpp"
#include "solver/cg.hpp"
#include "sparse/csr.hpp"

namespace drcm::solver {

/// The symbolic half of one rank's distributed solve: everything that
/// depends on the pattern of its row block and on the order its values
/// arrive in, and nothing that depends on a value. Built once per pattern
/// by build_solve_plan; solve_with_plan reuses it for any values.
struct SolvePlan {
  index_t n = 0;
  index_t lo = 0;  ///< first owned row
  index_t hi = 0;  ///< one past the last owned row
  int ranks = 0;   ///< world size the plan was built on
  /// Receive-slot map: the k-th input value lands at vals[value_slot[k]]
  /// of the split system, whose local half comes first (lcol.size() slots)
  /// and remote half after it.
  std::vector<nnz_t> value_slot;
  // Local half: columns inside [lo, hi), stored with local column ids.
  std::vector<nnz_t> lptr;
  std::vector<index_t> lcol;
  // Remote half: columns outside, remapped to halo slots.
  std::vector<nnz_t> rptr;
  std::vector<index_t> rslot;
  // Halo: for each peer rank, which of my x entries it needs (send), and
  // how many entries I receive from each peer (the slots are ordered by
  // peer rank, then ascending by global index within each peer).
  std::vector<std::vector<index_t>> send_local_ids;
  index_t halo_size = 0;
  /// ILU(0) structure of the diagonal block; its value sources index the
  /// local half of the split values.
  IluPattern ilu;
  // Filled by the redistribution that routed the pattern (see
  // rcm::ordered_solve); empty or zero for a plan built from a row block.
  /// Slab offset of the k-th arriving rhs element.
  std::vector<index_t> rhs_slot;
  /// Permuted bandwidth of the whole matrix.
  index_t bandwidth = 0;
  /// Order-dependent digest of this rank's balanced-2D input window
  /// (dist::window_digest_step), the plan's validity guard.
  std::uint64_t window_digest = 0;

  index_t local_rows() const { return hi - lo; }
  /// Entries of the split system (= input values per solve).
  nnz_t entries() const { return static_cast<nnz_t>(value_slot.size()); }
  std::uint64_t resident_elements() const;
};

/// Collective (one halo-request alltoallv, charged to kSolver): builds the
/// plan of this rank's row block `a`, whose values `a.vals` are NOT read.
/// `origin`, when non-empty, gives the input position of the value of each
/// block slot (dist::OneShotRowBlocks::origin), so the plan places values
/// in the order the routed exchange delivers them (a permutation of the
/// block's slots); empty means block order.
SolvePlan build_solve_plan(mps::Comm& world, const dist::RowBlockCsr& a,
                           std::span<const nnz_t> origin = {});

/// The numeric half, collective on the plan's world: places `values` (one
/// per plan.entries(), in the plan's input order) into the split system,
/// factors ILU(0) when `precondition`, and runs PCG on `b_local` (the rhs
/// of the owned rows). `x_local` receives this rank's solution slab. The
/// resident ledger records the solve's own footprint plus
/// `held_alongside`, the elements the caller keeps live next to it.
CgResult solve_with_plan(mps::Comm& world, const SolvePlan& plan,
                         std::span<const double> values,
                         std::span<const double> b_local,
                         std::vector<double>& x_local, bool precondition,
                         const CgOptions& options = {},
                         std::uint64_t held_alongside = 0);

/// SPMD collective: solves A x = b on an ALREADY DISTRIBUTED matrix: `a`
/// is this rank's 1D row block (the output of
/// dist::redistribute_to_row_blocks) and `b_local` the rhs entries of the
/// owned rows [a.lo, a.hi): builds the block's plan, then solves with its
/// values. No replicated CSR exists anywhere. `x_local` receives ONLY this
/// rank's solution slab for rows [a.lo, a.hi) — the solve never replicates
/// anything; drivers assemble the O(n) vector outside the ranks
/// (assemble_solution).
CgResult dist_pcg(mps::Comm& world, const dist::RowBlockCsr& a,
                  std::span<const double> b_local,
                  std::vector<double>& x_local, bool precondition,
                  const CgOptions& options = {});

/// Assembles the replicated solution from every rank's slab, OUTSIDE the
/// SPMD ranks (the driver holds the slabs like any other checkpoint, so no
/// rank's ledger pays for the O(n) copy). The row blocks are contiguous,
/// so rank-order concatenation IS the solution of the permuted system;
/// then x[v] = x_perm[labels[v]] maps it back to the original numbering
/// (identity labels for an unpermuted solve). Local; no charge.
std::vector<double> assemble_solution(
    const std::vector<std::vector<double>>& slabs,
    const std::vector<index_t>& labels);

/// Convenience wrapper: slices the replicated fixture `a` (and `b`) into
/// one RowBlockCsr per rank outside the ranks, launches `nranks` ranks
/// (any count) running dist_pcg on their block, and assembles the
/// replicated solution outside them — returned with the cost report.
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
