// Micro-benchmarks (google-benchmark) for the SpMSpV kernel: frontier-size
// sweep on the local CSC path (p=1) and the full distributed exchange
// (p=4), plus the serial RCM baselines for context.
#include <benchmark/benchmark.h>

#include "dist/dist_matrix.hpp"
#include "dist/spmspv.hpp"
#include "mpsim/runtime.hpp"
#include "order/rcm_serial.hpp"
#include "order/rcm_shared.hpp"
#include "sparse/generators.hpp"

namespace {

using namespace drcm;

const sparse::CsrMatrix& test_matrix() {
  static const auto a = sparse::gen::grid3d(20, 20, 20, sparse::gen::Stencil3d::k27);
  return a;
}

std::vector<dist::VecEntry> frontier_of(index_t count, index_t n) {
  std::vector<dist::VecEntry> f;
  const index_t stride = std::max<index_t>(1, n / count);
  for (index_t v = 0; v < n && static_cast<index_t>(f.size()) < count;
       v += stride) {
    f.push_back(dist::VecEntry{v, v});
  }
  return f;
}

void BM_SpmspvLocal(benchmark::State& state) {
  const auto& a = test_matrix();
  const auto frontier = frontier_of(state.range(0), a.n());
  for (auto _ : state) {
    mps::Runtime::run(1, [&](mps::Comm& world) {
      dist::ProcGrid2D grid(world);
      dist::DistSpMat mat(grid, a);
      dist::DistSpVec x(mat.vec_dist(), grid);
      x.assign(frontier);
      auto y = dist::spmspv_select2nd_min(mat, x, grid);
      benchmark::DoNotOptimize(y.entries().data());
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frontier.size()));
}
BENCHMARK(BM_SpmspvLocal)->Arg(16)->Arg(256)->Arg(4096)->Iterations(10);

void BM_SpmspvGrid4(benchmark::State& state) {
  const auto& a = test_matrix();
  const auto frontier = frontier_of(state.range(0), a.n());
  for (auto _ : state) {
    mps::Runtime::run(4, [&](mps::Comm& world) {
      dist::ProcGrid2D grid(world);
      dist::DistSpMat mat(grid, a);
      dist::DistSpVec x(mat.vec_dist(), grid);
      std::vector<dist::VecEntry> mine;
      for (const auto& e : frontier) {
        if (e.idx >= x.lo() && e.idx < x.hi()) mine.push_back(e);
      }
      x.assign(mine);
      auto y = dist::spmspv_select2nd_min(mat, x, grid);
      benchmark::DoNotOptimize(y.entries().data());
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frontier.size()));
}
BENCHMARK(BM_SpmspvGrid4)->Arg(256)->Arg(4096)->Iterations(5);

void BM_RcmSerial(benchmark::State& state) {
  const auto a = sparse::gen::relabel_random(
      sparse::gen::grid2d(static_cast<index_t>(state.range(0)),
                          static_cast<index_t>(state.range(0))),
      7);
  for (auto _ : state) {
    auto labels = order::rcm_serial(a);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_RcmSerial)->Arg(32)->Arg(64)->Arg(128)->Iterations(5);

void BM_RcmShared2(benchmark::State& state) {
  const auto a = sparse::gen::relabel_random(
      sparse::gen::grid2d(static_cast<index_t>(state.range(0)),
                          static_cast<index_t>(state.range(0))),
      7);
  for (auto _ : state) {
    auto labels = order::rcm_shared(a, 2);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_RcmShared2)->Arg(64)->Arg(128)->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
