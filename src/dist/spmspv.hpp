// The (select2nd, min) SpMSpV: one BFS/ordering expansion step (paper
// Algorithm 2). y[i] = min over frontier entries (j, v) with A(i, j) != 0
// of v — children adopt the minimum parent value.
//
// Three bulk-synchronous stages on the 2D grid:
//   1. gather the frontier chunk along my processor column (allgatherv),
//   2. multiply my block locally into per-row partial minima,
//   3. merge partials along my processor row (alltoallv by sub-chunk) and
//      hand the merged sub-chunk to its true owner via the transpose
//      pairwise exchange.
//
// This is the standalone kernel: three collectives (six barrier crossings)
// per call, plus the caller's SET / SELECT / emptiness round trips. The
// fused per-level path (dist/level_kernel.hpp) performs the same math in
// one two-crossing collective and is what the BFS loops actually run;
// this entry point remains a primitive of its own (micro_spmspv, fig4's
// crossing split and the perfbench dist.spmspv_* probes time it).
#pragma once

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"
#include "dist/workspace.hpp"

namespace drcm::dist {

/// Work units charged per element of a sequential stamp-check sweep.
/// MachineParams::gamma is calibrated for one random CSR edge visit; a
/// predictable linear sweep over a dense array costs a fraction of that.
/// Only the standalone kernel's stage-3b merge still sweeps its whole
/// merge range; the fused level kernel never scans a dense range.
inline constexpr double kScanUnit = 0.125;

/// Stage 2 alone: multiplies my block by the gathered frontier into
/// per-row partial minima with GLOBAL row indices, each row at most once.
/// Returns workspace-owned scratch valid until the next workspace checkout;
/// `*work` receives the work units to charge: frontier edges + emitted
/// rows, the same at every thread count. Shared by the standalone kernel
/// below and the fused level kernel.
///
/// With `threads` == 1 one stamped SPA records the rows it touches and
/// emits them in first-touch order — O(frontier edges), NOT ascending.
/// `threads` > 1 selects the hybrid node-level path (paper Fig. 6): the
/// frontier loop OpenMP-splits into contiguous stripes over per-thread
/// stamped SPAs, and the per-thread results are min-merged in a
/// deterministic order into ascending output. Either way the emitted
/// (row, minimum) SET is identical, so callers that need an order sort
/// it; the caller's Comm divides modeled seconds by its thread count.
std::vector<VecEntry>& spmspv_local_multiply(const DistSpMat& a,
                                             std::span<const VecEntry> frontier,
                                             DistWorkspace& ws, double* work,
                                             int threads = 1);

/// Collective. `x` must be distributed conformally with `a`
/// (x.dist() == a.vec_dist(); throws CheckError otherwise). Scratch comes
/// from `ws`, or from the grid's per-rank workspace when `ws` is null. The
/// local multiply runs on grid.world().threads() OpenMP threads (the
/// Runtime::run threads_per_rank of the hybrid configuration).
DistSpVec spmspv_select2nd_min(const DistSpMat& a, const DistSpVec& x,
                               ProcGrid2D& grid, DistWorkspace* ws = nullptr);

/// Source compatibility for callers written against the removed
/// accumulator arms (perfbench/src/probes.cpp passes kAuto): stage 2 has a
/// single arm, so the value selects nothing.
enum class SpmspvAccumulator { kAuto };

inline DistSpVec spmspv_select2nd_min(const DistSpMat& a, const DistSpVec& x,
                                      ProcGrid2D& grid, SpmspvAccumulator,
                                      DistWorkspace* ws = nullptr) {
  return spmspv_select2nd_min(a, x, grid, ws);
}

}  // namespace drcm::dist
