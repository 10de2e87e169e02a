#include "dist/primitives.hpp"

namespace drcm::dist {

namespace {

void check_aligned(const VectorDist& a, const VectorDist& b) {
  DRCM_CHECK(a == b, "primitive operands must share one distribution");
}

/// (key, index) pair ordered by key then index; index == kNoVertex marks
/// an empty contribution. A plain struct (std::pair is not trivially
/// copyable, which the collectives require).
struct ArgMin {
  index_t key;
  index_t idx;
};

ArgMin combine_argmin(const ArgMin& a, const ArgMin& b) {
  if (a.idx == kNoVertex) return b;
  if (b.idx == kNoVertex) return a;
  if (a.key != b.key) return a.key < b.key ? a : b;
  return a.idx <= b.idx ? a : b;
}

}  // namespace

void scatter_into_dense(DistDenseVec& dense, const DistSpVec& sp,
                        mps::Comm& world) {
  check_aligned(sp.dist(), dense.dist());
  for (const auto& e : sp.entries()) dense.set(e.idx, e.val);
  world.charge_compute(static_cast<double>(sp.entries().size()));
}

std::pair<index_t, index_t> reduce_argmin(const DistSpVec& sp,
                                          const DistDenseVec& key,
                                          mps::Comm& world) {
  check_aligned(sp.dist(), key.dist());
  ArgMin best{kNoVertex, kNoVertex};
  for (const auto& e : sp.entries()) {
    best = combine_argmin(best, ArgMin{key.get(e.idx), e.idx});
  }
  world.charge_compute(static_cast<double>(sp.entries().size()));
  best = world.allreduce(best, combine_argmin);
  return {best.key, best.idx};
}

std::pair<index_t, index_t> argmin_unvisited(const DistDenseVec& visited,
                                             const DistDenseVec& key,
                                             mps::Comm& world) {
  check_aligned(visited.dist(), key.dist());
  ArgMin best{kNoVertex, kNoVertex};
  for (index_t g = visited.lo(); g < visited.hi(); ++g) {
    if (visited.get(g) == kNoVertex) {
      best = combine_argmin(best, ArgMin{key.get(g), g});
    }
  }
  world.charge_compute(static_cast<double>(visited.local_size()));
  best = world.allreduce(best, combine_argmin);
  return {best.key, best.idx};
}

}  // namespace drcm::dist
