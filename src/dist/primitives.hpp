// The paper's Table-I vector primitives that stand alone on aligned
// distributed vectors: SET (dense <- sparse) and the REDUCE argmins.
//
// SET (sparse <- dense) and SELECT have no standalone form: the level
// kernels (dist/level_kernel.hpp) fold them into the SpMSpV superstep,
// where the frontier is published and where the owner merges. All
// sparse/dense pairs must share one distribution, so SET is embarrassingly
// local; only the argmin reductions communicate (one allreduce of a
// (key, index) pair). Every primitive charges its scalar work through the
// Comm so phase breakdowns stay honest.
#pragma once

#include <utility>

#include "dist/dist_vector.hpp"

namespace drcm::dist {

/// SET (dense <- sparse): dense[idx] <- val for every sparse entry.
/// Local; `world` only receives the compute charge.
void scatter_into_dense(DistDenseVec& dense, const DistSpVec& sp,
                        mps::Comm& world);

/// REDUCE: (min dense[idx], idx) over the sparse support, ties to the
/// smallest index; (kNoVertex, kNoVertex) when the support is empty
/// everywhere. Collective.
std::pair<index_t, index_t> reduce_argmin(const DistSpVec& sp,
                                          const DistDenseVec& key,
                                          mps::Comm& world);

/// (min key[g], g) over elements with visited[g] == kNoVertex, ties to the
/// smallest index; (kNoVertex, kNoVertex) when every element is visited.
/// Collective.
std::pair<index_t, index_t> argmin_unvisited(const DistDenseVec& visited,
                                             const DistDenseVec& key,
                                             mps::Comm& world);

}  // namespace drcm::dist
