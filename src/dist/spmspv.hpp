// The (select2nd, min) SpMSpV: one BFS/ordering expansion step (paper
// Algorithm 2). y[i] = min over frontier entries (j, v) with A(i, j) != 0
// of v — children adopt the minimum parent value.
//
// One routed superstep pair on the world communicator
// (Comm::fused_gather_route_count), the same route the fused level
// kernels take:
//   1. gather the frontier chunk from the q ranks of my processor column,
//   2. multiply my block locally into per-row partial minima and route
//      each partial straight to the owner of its element,
//   3. the owner min-merges the <= q partial lists in stamped slots.
// 2 barrier crossings per call, 1 when the frontier is empty everywhere.
// The local multiply lives here (spmspv.cpp); the standalone entry point
// is defined next to bfs_level_step in level_kernel.cpp, whose helpers it
// shares. It adds neither SET nor SELECT, so it remains a primitive of its
// own: fig4 and the perfbench dist.spmspv_* probes time it.
#pragma once

#include "dist/dist_matrix.hpp"
#include "dist/dist_vector.hpp"
#include "dist/workspace.hpp"

namespace drcm::dist {

/// Stage 2 alone: multiplies my block by the gathered frontier into
/// per-row partial minima with GLOBAL row indices, each row at most once.
/// Returns workspace-owned scratch valid until the next workspace checkout;
/// `*work` receives the work units to charge: frontier edges + emitted
/// rows, the same at every thread count. Every expansion (the standalone
/// kernel below and both fused level kernels) runs it.
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
/// (x.dist() == a.vec_dist(); throws CheckError otherwise); the result is
/// this rank's owned part of y, ascending by index. Costs are charged to
/// the caller's current phase. Scratch comes from `ws`, or from the grid's
/// per-rank workspace when `ws` is null. The local multiply runs on
/// grid.world().threads() OpenMP threads (the Runtime::run
/// threads_per_rank of the hybrid configuration).
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
