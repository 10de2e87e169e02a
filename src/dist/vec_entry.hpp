// The sparse-vector entry type, split out of dist_vector.hpp so the
// per-rank workspace (workspace.hpp) can use it without dragging in the
// distribution math — ProcGrid2D owns a DistWorkspace, and dist_vector.hpp
// includes proc_grid.hpp.
#pragma once

#include "common/types.hpp"

namespace drcm::dist {

/// One entry of a sparse distributed vector: (global index, value). The
/// value carries labels / levels through the (select2nd, min) semiring.
struct VecEntry {
  index_t idx;
  index_t val;
  friend bool operator==(const VecEntry&, const VecEntry&) = default;
};

/// Orders entries by index: the order a DistSpVec stores them in.
inline bool idx_less(const VecEntry& a, const VecEntry& b) {
  return a.idx < b.idx;
}

/// Same with a numerical payload: one rhs/solution element in flight
/// through the value pipeline's redistribution collectives.
struct VecEntryD {
  index_t idx;
  double val;
  friend bool operator==(const VecEntryD&, const VecEntryD&) = default;
};

/// One matrix entry in flight, already relabeled to its new coordinates
/// and carrying its numerical value (the value rides the same alltoallv as
/// its coordinates).
struct MatEntryV {
  index_t row;
  index_t col;
  double val;
};

}  // namespace drcm::dist
