// Ordering-as-a-service tour: push a mixed hot/cold request stream through
// a ReorderingService and watch the three amortizations pay off.
//
//   * COLD requests (first sighting of a sparsity pattern) pay the full
//     pipeline: fingerprint -> BFS + SORTPERM ordering -> value-carrying
//     one-shot redistribution -> distributed CG.
//   * WARM requests (repeat patterns) hit the ordering cache: the service
//     jumps straight to the redistribution with the cached labels, and the
//     per-request ledger proves the ordering phases were never entered
//     (ZERO ordering-phase barrier crossings — gated below).
//   * The persistent per-rank workspaces settle after the warm-up: the
//     tail of the stream performs ZERO reallocations (gated below).
//
// A second, DELTA phase streams near-miss patterns at a fresh service:
// a two-component fixture whose small component is window-aligned takes
// small pattern deltas (edge adds/removes), and every delta lands as a
// REPAIR HIT — the cached ordering's untouched component is reused, only
// the dirtied one is re-leveled, and the spliced labels are bit-identical
// to a cold recompute. The repair is priced strictly between a pure hit
// and a cold run, in ordering crossings AND wall time.
//
// Both streams are replayed kReplays times, each replay on a fresh
// service, and the wall gates compare per-kind MEDIANS over every replay's
// samples: a request of a few milliseconds is one noisy sample on a
// shared host, a median of many is not. The cold median is the delta
// summary's `cold_wall_s`.
//
// Gates (nonzero exit on violation): every cache hit shows 0 ordering
// crossings; the warm median wall time beats the cold median; the stream
// tail is reallocation-free in every replay; hit solutions are
// bit-identical to their cold reference; every replay repeats the first
// one's hits and crossings exactly; every delta repairs with 0 < crossings
// < cold; the repair median wall sits strictly between the hit median and
// the cold median.
// `--json FILE` emits the hot/cold stream numbers (BENCH_3.json);
// `--delta-json FILE` emits the cold/hit/repair comparison (BENCH_4.json).
// A request's `wall_s` there is its median over the replays; the other
// per-request fields are the first replay's.
//
//   $ ./examples/ordering_service [--json BENCH_3.json] \
//                                 [--delta-json BENCH_4.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/timer.hpp"
#include "service/service.hpp"
#include "sparse/generators.hpp"
#include "sparse/pattern_delta.hpp"

namespace {

/// Each stream is replayed this many times, each replay on a fresh service.
constexpr int kReplays = 15;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace drcm;
  namespace gen = sparse::gen;

  const char* json_path = nullptr;
  const char* delta_json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--delta-json") == 0 && i + 1 < argc) {
      delta_json_path = argv[++i];
    } else {
      std::printf("usage: %s [--json FILE] [--delta-json FILE]\n", argv[0]);
      return 1;
    }
  }

  // Three distinct high-diameter shells arriving scattered — the repeat
  // customers of the service. Same family, different patterns: each gets
  // its own fingerprint and its own cache entry.
  std::vector<sparse::CsrMatrix> patterns;
  std::vector<std::vector<double>> rhs;
  for (int i = 0; i < 3; ++i) {
    patterns.push_back(gen::with_laplacian_values(
        gen::relabel_random(gen::grid3d(5, 5, 60 + 10 * i, gen::Stencil3d::k27),
                            21 + i),
        0.02));
    const auto n = patterns.back().n();
    std::vector<double> b(static_cast<std::size_t>(n));
    for (index_t v = 0; v < n; ++v) {
      b[static_cast<std::size_t>(v)] =
          1.0 + 0.5 * static_cast<double>((v * 2654435761u) % 1000) / 1000.0;
    }
    rhs.push_back(std::move(b));
  }

  service::ServiceOptions options;
  options.ranks = 4;  // one 2x2 lane per submission

  std::printf("ordering service: %d ranks, %zu patterns in rotation, "
              "%d replays\n\n",
              options.ranks, patterns.size(), kReplays);

  struct Point {
    int index, pattern;
    bool hit;
    std::vector<double> walls;  // one per replay
    unsigned long long crossings, reallocs;
  };
  std::vector<Point> points;

  // The stream: 12 requests cycling the three patterns. Requests 0-2 are
  // cold (first sighting); 3-11 are warm repeats of the same (pattern,
  // rhs) pairs and must hit.
  const int total = 12;
  const int npatterns = static_cast<int>(patterns.size());
  std::vector<double> cold_walls, warm_walls;
  double hit_rate = 0.0;
  unsigned long long crossings_saved = 0, tail_reallocs = 0;
  for (int rep = 0; rep < kReplays; ++rep) {
    service::ReorderingService svc(options);
    std::vector<service::OrderSolveResponse> cold(patterns.size());
    std::vector<unsigned long long> cold_crossings(patterns.size(), 0);
    for (int k = 0; k < total; ++k) {
      const auto p = static_cast<std::size_t>(k % npatterns);
      service::OrderSolveRequest request;
      request.matrix = &patterns[p];
      request.b = rhs[p];
      WallTimer t;
      auto resp = svc.submit(request);
      const double wall = t.seconds();
      if (resp.status != service::RequestStatus::kOk) {
        std::printf("ERROR: request %d failed: %s\n", k, resp.error.c_str());
        return 1;
      }
      if (rep == 0) {
        points.push_back({k, static_cast<int>(p), resp.cache_hit, {},
                          resp.ordering_crossings,
                          resp.workspace_reallocations});
      }
      auto& pt = points[static_cast<std::size_t>(k)];
      if (resp.cache_hit != pt.hit ||
          resp.ordering_crossings != pt.crossings) {
        std::printf("ERROR: replay %d request %d differs from the first "
                    "replay!\n", rep, k);
        return 1;
      }
      pt.walls.push_back(wall);
      if (k < npatterns) {
        if (resp.cache_hit) {
          std::printf("ERROR: request %d hit on a first sighting!\n", k);
          return 1;
        }
        cold_walls.push_back(wall);
        cold_crossings[p] = resp.ordering_crossings;
        cold[p] = std::move(resp);
        continue;
      }
      // Warm phase: must hit, must never enter an ordering phase, and must
      // reproduce the cold solution bit for bit (same lane geometry, same
      // reduction order).
      if (!resp.cache_hit) {
        std::printf("ERROR: request %d missed on a repeat pattern!\n", k);
        return 1;
      }
      if (resp.ordering_crossings != 0) {
        std::printf("ERROR: cache hit %d crossed %llu ordering barriers!\n", k,
                    static_cast<unsigned long long>(resp.ordering_crossings));
        return 1;
      }
      if (resp.x.size() != cold[p].x.size() ||
          std::memcmp(resp.x.data(), cold[p].x.data(),
                      resp.x.size() * sizeof(double)) != 0) {
        std::printf("ERROR: hit %d diverged from its cold reference!\n", k);
        return 1;
      }
      warm_walls.push_back(wall);
      if (rep == 0) crossings_saved += cold_crossings[p];
      // Tail of the stream: every shape has been seen twice, so the realloc
      // ledger (growths surface at the NEXT checkout) must have settled.
      if (k >= 2 * npatterns) tail_reallocs += resp.workspace_reallocations;
    }
    if (rep == 0) {
      hit_rate = static_cast<double>(svc.cache_hits()) /
                 static_cast<double>(svc.cache_hits() + svc.cache_misses());
    }
  }

  std::printf("%4s %8s %6s %5s %15s %14s %9s\n", "req", "pattern", "n", "hit",
              "median wall (s)", "ordering chg", "reallocs");
  for (const auto& pt : points) {
    std::printf("%4d %8d %6lld %5s %15.3f %14llu %9llu\n", pt.index,
                pt.pattern,
                static_cast<long long>(
                    patterns[static_cast<std::size_t>(pt.pattern)].n()),
                pt.hit ? "HIT" : "miss", median(pt.walls), pt.crossings,
                pt.reallocs);
  }
  const double cold_median = median(cold_walls);
  const double warm_median = median(warm_walls);
  std::printf("\ncold median %.3f s  ->  warm median %.3f s  (%.1fx), "
              "hit rate %.0f%%, %llu ordering crossings saved per replay\n",
              cold_median, warm_median, cold_median / warm_median,
              100.0 * hit_rate, crossings_saved);

  if (warm_median >= cold_median) {
    std::printf("ERROR: warm requests are not faster than cold ones!\n");
    return 1;
  }
  if (tail_reallocs != 0) {
    std::printf("ERROR: the stream tail performed %llu reallocations!\n",
                tail_reallocs);
    return 1;
  }
  std::printf("gates hold: hits skip every ordering collective, the warm "
              "path is faster, and the steady state allocates nothing.\n");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::printf("ERROR: cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ordering_service\",\n");
    std::fprintf(f, "  \"service\": {\"ranks\": %d, \"cache_capacity\": %zu},\n",
                 options.ranks, options.cache_capacity);
    std::fprintf(f, "  \"patterns\": [\n");
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      std::fprintf(f, "    {\"n\": %lld, \"nnz\": %lld}%s\n",
                   static_cast<long long>(patterns[i].n()),
                   static_cast<long long>(patterns[i].nnz()),
                   i + 1 < patterns.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"requests\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& pt = points[i];
      std::fprintf(f,
                   "    {\"index\": %d, \"pattern\": %d, \"cache_hit\": %s, "
                   "\"wall_s\": %.6f, \"ordering_crossings\": %llu, "
                   "\"workspace_reallocations\": %llu}%s\n",
                   pt.index, pt.pattern, pt.hit ? "true" : "false",
                   median(pt.walls), pt.crossings, pt.reallocs,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"summary\": {\n");
    std::fprintf(f, "    \"replays\": %d,\n", kReplays);
    std::fprintf(f, "    \"cold_requests\": %d,\n    \"warm_requests\": %d,\n",
                 npatterns, total - npatterns);
    std::fprintf(f, "    \"cold_mean_wall_s\": %.6f,\n", mean(cold_walls));
    std::fprintf(f, "    \"warm_mean_wall_s\": %.6f,\n", mean(warm_walls));
    std::fprintf(f, "    \"cold_median_wall_s\": %.6f,\n", cold_median);
    std::fprintf(f, "    \"warm_median_wall_s\": %.6f,\n", warm_median);
    std::fprintf(f, "    \"warm_speedup\": %.3f,\n", cold_median / warm_median);
    std::fprintf(f, "    \"hit_rate\": %.4f,\n", hit_rate);
    std::fprintf(f, "    \"ordering_crossings_saved\": %llu,\n",
                 crossings_saved);
    std::fprintf(f, "    \"tail_reallocations\": %llu\n  }\n}\n",
                 tail_reallocs);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  // ---- Delta stream: cold vs hit vs repair-hit -----------------------
  // Two components, window-aligned on purpose: n = 1280 puts the row-
  // window width at exactly 80, so the big component (1200 rows) fills
  // windows 0..14 and the small one (80 rows) fills window 15 — a delta
  // confined to the small component can never dirty a window overlapping
  // the big one, and the repair planner always reuses the big component.
  const auto big = gen::grid2d(30, 40);
  const auto small = gen::grid2d(8, 10);
  const auto adjacency = gen::disjoint_union({big, small});
  const index_t small_lo = big.n();
  const auto base = gen::with_laplacian_values(adjacency, 0.02);
  std::vector<double> db(static_cast<std::size_t>(base.n()));
  for (index_t v = 0; v < base.n(); ++v) {
    db[static_cast<std::size_t>(v)] =
        1.0 + 0.5 * static_cast<double>((v * 2654435761u) % 1000) / 1000.0;
  }

  // Three near-miss edits, all confined to the small component: every one
  // must land as a repair hit priced strictly under the cold ordering.
  struct Edit {
    const char* name;
    index_t adds, removes;
    u64 seed;
  };
  const Edit edits[] = {{"repair", 1, 0, 101},   // one edge added
                        {"repair", 0, 1, 202},   // one edge removed
                        {"repair", 2, 1, 303}};  // mixed edit
  std::vector<sparse::CsrMatrix> perturbed_store;
  for (const auto& e : edits) {
    const auto delta = sparse::random_pattern_delta(
        adjacency, e.adds, e.removes, e.seed, small_lo, adjacency.n());
    perturbed_store.push_back(gen::with_laplacian_values(
        sparse::apply_pattern_delta(adjacency, delta), 0.02));
  }

  service::ServiceOptions delta_options;
  delta_options.ranks = 4;

  std::printf("\ndelta stream: %lld-row two-component fixture, small "
              "component takes the edits\n",
              static_cast<long long>(base.n()));

  struct DeltaPoint {
    const char* kind;
    std::vector<double> walls;  // one per replay
    unsigned long long crossings;
    int changed_windows;
    long long level_steps_skipped;
  };
  std::vector<DeltaPoint> delta_points;
  unsigned long long cold_ordering = 0, repair_crossings_max = 0;
  for (int rep = 0; rep < kReplays; ++rep) {
    service::ReorderingService delta_svc(delta_options);
    std::size_t slot = 0;
    auto timed_submit = [&](const sparse::CsrMatrix& m, const char* kind)
        -> service::OrderSolveResponse {
      service::OrderSolveRequest rq;
      rq.matrix = &m;
      rq.b = db;
      WallTimer t;
      auto resp = delta_svc.submit(rq);
      const double wall = t.seconds();
      if (resp.status != service::RequestStatus::kOk) {
        std::printf("ERROR: delta-stream %s request failed: %s\n", kind,
                    resp.error.c_str());
        std::exit(1);
      }
      if (rep == 0) {
        delta_points.push_back(
            {kind, {},
             static_cast<unsigned long long>(resp.ordering_crossings),
             resp.changed_windows,
             static_cast<long long>(resp.level_steps_skipped)});
      }
      auto& pt = delta_points[slot++];
      if (resp.ordering_crossings != pt.crossings ||
          resp.changed_windows != pt.changed_windows ||
          resp.level_steps_skipped != pt.level_steps_skipped) {
        std::printf("ERROR: replay %d delta %s request differs from the "
                    "first replay!\n", rep, kind);
        std::exit(1);
      }
      pt.walls.push_back(wall);
      return resp;
    };

    // Cold sighting, then a pure hit on the identical pattern.
    const auto delta_cold = timed_submit(base, "cold");
    const auto delta_hit = timed_submit(base, "hit");
    if (!delta_hit.cache_hit || delta_hit.ordering_crossings != 0) {
      std::printf("ERROR: repeat of the base pattern did not purely hit!\n");
      return 1;
    }
    cold_ordering = delta_cold.ordering_crossings;

    for (std::size_t i = 0; i < std::size(edits); ++i) {
      const auto& perturbed = perturbed_store[i];
      const auto rep_resp = timed_submit(perturbed, edits[i].name);
      if (!rep_resp.repair_hit || rep_resp.cache_hit) {
        std::printf("ERROR: a small-component delta did not repair!\n");
        return 1;
      }
      if (rep_resp.ordering_crossings == 0 ||
          rep_resp.ordering_crossings >= cold_ordering) {
        std::printf("ERROR: repair crossings (%llu) not strictly between a "
                    "hit's zero and the cold run's %llu!\n",
                    static_cast<unsigned long long>(rep_resp.ordering_crossings),
                    cold_ordering);
        return 1;
      }
      repair_crossings_max = std::max(
          repair_crossings_max,
          static_cast<unsigned long long>(rep_resp.ordering_crossings));
      // The repaired entry is first-class: resubmitting the perturbed
      // pattern is a pure hit.
      const auto rehit = timed_submit(perturbed, "hit");
      if (!rehit.cache_hit || rehit.ordering_crossings != 0) {
        std::printf("ERROR: a repaired pattern did not re-hit purely!\n");
        return 1;
      }
    }
  }

  std::printf("%-10s %15s %14s %8s %6s\n", "kind", "median wall (s)",
              "ordering chg", "windows", "skips");
  std::vector<double> delta_cold_walls, hit_walls, repair_walls;
  for (const auto& pt : delta_points) {
    std::printf("%-10s %15.3f %14llu %8d %6lld\n", pt.kind, median(pt.walls),
                pt.crossings, pt.changed_windows, pt.level_steps_skipped);
    auto& pool = std::strcmp(pt.kind, "cold") == 0  ? delta_cold_walls
                 : std::strcmp(pt.kind, "hit") == 0 ? hit_walls
                                                    : repair_walls;
    pool.insert(pool.end(), pt.walls.begin(), pt.walls.end());
  }
  const double delta_cold_wall = median(delta_cold_walls);
  const double repair_median = median(repair_walls);
  const double hit_median = median(hit_walls);
  std::printf("\ncold median %.3f s  >  repair median %.3f s  >  hit median "
              "%.3f s; repair crossings <= %llu, cold %llu\n",
              delta_cold_wall, repair_median, hit_median, repair_crossings_max,
              cold_ordering);
  if (!(hit_median < repair_median && repair_median < delta_cold_wall)) {
    std::printf("ERROR: repair wall is not strictly between hit and cold!\n");
    return 1;
  }
  std::printf("delta gates hold: every edit repaired, priced strictly "
              "between a hit and a cold run.\n");

  if (delta_json_path != nullptr) {
    std::FILE* f = std::fopen(delta_json_path, "w");
    if (f == nullptr) {
      std::printf("ERROR: cannot open %s for writing\n", delta_json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ordering_service_delta\",\n");
    std::fprintf(f,
                 "  \"service\": {\"ranks\": %d, \"repair_max_windows\": %d},\n",
                 delta_options.ranks, service::kRepairMaxWindows);
    std::fprintf(f, "  \"pattern\": {\"n\": %lld, \"nnz\": %lld},\n",
                 static_cast<long long>(base.n()),
                 static_cast<long long>(base.nnz()));
    std::fprintf(f, "  \"requests\": [\n");
    for (std::size_t i = 0; i < delta_points.size(); ++i) {
      const auto& pt = delta_points[i];
      std::fprintf(f,
                   "    {\"kind\": \"%s\", \"wall_s\": %.6f, "
                   "\"ordering_crossings\": %llu, \"changed_windows\": %d, "
                   "\"level_steps_skipped\": %lld}%s\n",
                   pt.kind, median(pt.walls), pt.crossings, pt.changed_windows,
                   pt.level_steps_skipped,
                   i + 1 < delta_points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"summary\": {\n");
    std::fprintf(f, "    \"replays\": %d,\n", kReplays);
    std::fprintf(f, "    \"cold_wall_s\": %.6f,\n", delta_cold_wall);
    std::fprintf(f, "    \"repair_mean_wall_s\": %.6f,\n", mean(repair_walls));
    std::fprintf(f, "    \"hit_mean_wall_s\": %.6f,\n", mean(hit_walls));
    std::fprintf(f, "    \"repair_median_wall_s\": %.6f,\n", repair_median);
    std::fprintf(f, "    \"hit_median_wall_s\": %.6f,\n", hit_median);
    std::fprintf(f, "    \"cold_ordering_crossings\": %llu,\n", cold_ordering);
    std::fprintf(f, "    \"repair_max_ordering_crossings\": %llu,\n",
                 repair_crossings_max);
    std::fprintf(f, "    \"repairs\": %zu\n  }\n}\n", std::size(edits));
    std::fclose(f);
    std::printf("wrote %s\n", delta_json_path);
  }
  return 0;
}
