// The paper's Table-I vector primitives (SET / SELECT / REDUCE and
// friends) on aligned distributed vectors.
//
// All sparse/dense pairs must share one distribution, so SET and SELECT
// are embarrassingly local; only the argmin reductions communicate (one
// allreduce of an (key, index) pair). Every primitive charges its scalar
// work through the Comm so phase breakdowns stay honest.
#pragma once

#include <utility>

#include "dist/dist_vector.hpp"

namespace drcm::dist {

/// SET (sparse <- dense): every sparse value becomes the dense value at
/// its index. Local; `world` only receives the compute charge.
void gather_from_dense(DistSpVec& sp, const DistDenseVec& dense,
                       mps::Comm& world);

/// SET (dense <- sparse): dense[idx] <- val for every sparse entry.
void scatter_into_dense(DistDenseVec& dense, const DistSpVec& sp,
                        mps::Comm& world);

/// SELECT: keep the sparse entries whose dense value equals `value`.
DistSpVec select_where_equals(const DistSpVec& sp, const DistDenseVec& dense,
                              index_t value, mps::Comm& world);

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
