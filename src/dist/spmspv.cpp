#include "dist/spmspv.hpp"

namespace drcm::dist {

std::vector<VecEntry>& spmspv_local_multiply(const DistSpMat& a,
                                             std::span<const VecEntry> frontier,
                                             DistWorkspace& ws, double* work) {
  // Receive-path range check (always on): the gathered frontier arrived
  // over the wire and the loop below turns e.idx into a local column
  // access, so a corrupted index must stop here as a CheckError.
  for (const auto& e : frontier) {
    DRCM_CHECK(e.idx >= a.col_lo() && e.idx < a.col_hi(),
               "received frontier index outside the local column chunk");
  }
  // Accumulate minima in the workspace's stamped SPA, recording each row
  // the first time it is touched, then emit the touched rows once each, in
  // first-touch order (GLOBAL rows). No pass over untouched rows.
  auto& out = ws.partial_scratch();
  auto& spa = ws.spa(static_cast<std::size_t>(a.local_rows()));
  auto& touched = ws.spa_touched();
  double edges = 0;
  for (const auto& e : frontier) {
    const auto col = a.column(e.idx - a.col_lo());
    edges += static_cast<double>(col.size());
    for (const index_t lr : col) {
      if (spa.put_min(static_cast<std::size_t>(lr), e.val)) {
        touched.push_back(lr);
      }
    }
  }
  for (const index_t lr : touched) {
    out.push_back(
        VecEntry{a.row_lo() + lr, spa.val[static_cast<std::size_t>(lr)]});
  }
  *work = edges + static_cast<double>(out.size());
  return out;
}

}  // namespace drcm::dist
