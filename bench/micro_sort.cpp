// Micro-benchmarks (google-benchmark) for the two SORTPERM variants on
// synthetic frontiers: the paper's bucket sort (counting passes only; each
// element is dealt to the worker whose parent-label stripe holds it, and a
// count allgather gives every worker its offset) vs the general sample sort.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "dist/sortperm.hpp"
#include "mpsim/runtime.hpp"

namespace {

using namespace drcm;

struct SortInput {
  index_t n;
  index_t label_lo;
  index_t label_hi;
  std::vector<dist::VecEntry> frontier;
  std::vector<index_t> degrees;
};

SortInput make_input(index_t frontier_size) {
  SortInput in;
  in.n = frontier_size * 2;
  in.label_lo = 1000;
  in.label_hi = 1000 + frontier_size;
  in.degrees.resize(static_cast<std::size_t>(in.n));
  Rng rng(99);
  for (index_t v = 0; v < in.n; ++v) {
    in.degrees[static_cast<std::size_t>(v)] =
        static_cast<index_t>(rng.next_below(27));
    if (v % 2 == 0) {
      in.frontier.push_back(dist::VecEntry{
          v, in.label_lo + static_cast<index_t>(
                               rng.next_below(static_cast<u64>(frontier_size)))});
    }
  }
  return in;
}

template <bool kBucket>
void run_sort(benchmark::State& state, int ranks) {
  const auto in = make_input(static_cast<index_t>(state.range(0)));
  for (auto _ : state) {
    mps::Runtime::run(ranks, [&](mps::Comm& world) {
      dist::ProcGrid2D grid(world);
      dist::VectorDist vdist(in.n, grid.q());
      dist::DistDenseVec d(vdist, grid, 0);
      for (index_t g = d.lo(); g < d.hi(); ++g) {
        d.set(g, in.degrees[static_cast<std::size_t>(g)]);
      }
      dist::DistSpVec x(vdist, grid);
      std::vector<dist::VecEntry> mine;
      for (const auto& e : in.frontier) {
        if (e.idx >= x.lo() && e.idx < x.hi()) mine.push_back(e);
      }
      x.assign(mine);
      auto result = kBucket ? dist::sortperm_bucket(x, d, in.label_lo,
                                                    in.label_hi, grid)
                            : dist::sortperm_sample(x, d, grid);
      benchmark::DoNotOptimize(result.entries().data());
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.frontier.size()));
}

void BM_BucketSort1(benchmark::State& state) { run_sort<true>(state, 1); }
void BM_SampleSort1(benchmark::State& state) { run_sort<false>(state, 1); }
void BM_BucketSort4(benchmark::State& state) { run_sort<true>(state, 4); }
void BM_SampleSort4(benchmark::State& state) { run_sort<false>(state, 4); }

BENCHMARK(BM_BucketSort1)->Arg(1024)->Arg(65536)->Iterations(10);
BENCHMARK(BM_SampleSort1)->Arg(1024)->Arg(65536)->Iterations(10);
BENCHMARK(BM_BucketSort4)->Arg(1024)->Arg(65536)->Iterations(5);
BENCHMARK(BM_SampleSort4)->Arg(1024)->Arg(65536)->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
