// Randomized stress tests for the communicator: random payload sizes,
// random collective sequences, random splits — validated against local
// reference computations.
#include <gtest/gtest.h>

#include <numeric>
#include <span>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "mpsim/runtime.hpp"

namespace drcm::mps {
namespace {

class CollectiveFuzz : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveFuzz, ::testing::Range(0, 10));

TEST_P(CollectiveFuzz, RandomPayloadAllgatherv) {
  const auto seed = static_cast<u64>(GetParam());
  Rng sizes_rng(seed);
  const int p = 2 + static_cast<int>(sizes_rng.next_below(7));
  // Predetermine every rank's payload so all ranks can verify the result.
  std::vector<std::vector<std::int64_t>> payloads(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const auto len = sizes_rng.next_below(50);
    for (u64 i = 0; i < len; ++i) {
      payloads[static_cast<std::size_t>(r)].push_back(
          static_cast<std::int64_t>(sizes_rng.next_u64() % 1000));
    }
  }
  std::vector<std::int64_t> expect;
  for (const auto& pl : payloads) expect.insert(expect.end(), pl.begin(), pl.end());

  Runtime::run(p, [&](Comm& world) {
    const auto& mine = payloads[static_cast<std::size_t>(world.rank())];
    const auto all = world.allgatherv(std::span<const std::int64_t>(mine));
    EXPECT_EQ(all, expect);
  });
}

TEST_P(CollectiveFuzz, RandomAlltoallvRoundTrip) {
  const auto seed = static_cast<u64>(GetParam()) + 100;
  Rng rng(seed);
  const int p = 2 + static_cast<int>(rng.next_below(7));
  Runtime::run(p, [&](Comm& world) {
    // Rank s sends to d a block of (s*1000 + d) repeated (s+d) % 5 times.
    std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>((world.rank() + d) % 5),
          world.rank() * 1000 + d);
    }
    std::vector<std::int64_t> counts;
    const auto recv = world.alltoallv(send, &counts);
    std::size_t pos = 0;
    for (int s = 0; s < p; ++s) {
      const auto expect_count = static_cast<std::int64_t>((s + world.rank()) % 5);
      ASSERT_EQ(counts[static_cast<std::size_t>(s)], expect_count);
      for (std::int64_t k = 0; k < expect_count; ++k) {
        EXPECT_EQ(recv[pos++], s * 1000 + world.rank());
      }
    }
  });
}

TEST_P(CollectiveFuzz, MixedCollectiveSequence) {
  // A randomized but rank-agreed sequence of collectives; every step's
  // result is independently checkable.
  const auto seed = static_cast<u64>(GetParam()) + 200;
  Rng script_rng(seed);
  const int p = 2 + static_cast<int>(script_rng.next_below(5));
  std::vector<int> script;
  for (int step = 0; step < 20; ++step) {
    script.push_back(static_cast<int>(script_rng.next_below(4)));
  }
  Runtime::run(p, [&](Comm& world) {
    for (const int op : script) {
      switch (op) {
        case 0: {
          const auto sum = world.allreduce(
              static_cast<std::int64_t>(world.rank()),
              [](std::int64_t a, std::int64_t b) { return a + b; });
          EXPECT_EQ(sum, static_cast<std::int64_t>(p) * (p - 1) / 2);
          break;
        }
        case 1: {
          // Only rank 0 contributes: every rank receives its three words.
          std::vector<std::int64_t> mine;
          if (world.rank() == 0) mine = {7, 8, 9};
          const auto data =
              world.allgatherv(std::span<const std::int64_t>(mine));
          ASSERT_EQ(data.size(), 3u);
          EXPECT_EQ(data[2], 9);
          break;
        }
        case 2: {
          const auto pre = world.exscan_sum(static_cast<std::int64_t>(2));
          EXPECT_EQ(pre, 2 * world.rank());
          break;
        }
        default: {
          world.barrier();
          break;
        }
      }
    }
  });
}

TEST_P(CollectiveFuzz, NestedSplitsFormConsistentGroups) {
  const auto seed = static_cast<u64>(GetParam()) + 300;
  Rng rng(seed);
  const int p = 4 + static_cast<int>(rng.next_below(9));
  Runtime::run(p, [&](Comm& world) {
    // Split by parity, then split each half by quarters; sizes must add up.
    Comm half = world.split(world.rank() % 2, world.rank());
    Comm quarter = half.split(half.rank() % 2, half.rank());
    const auto total = quarter.allreduce(
        static_cast<std::int64_t>(1),
        [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(total, quarter.size());
    // Sum of group sizes across all quarters equals the world size.
    const auto groups = world.allgather(quarter.size());
    EXPECT_EQ(static_cast<int>(groups.size()), p);
    for (const int g : groups) EXPECT_GE(g, 1);
  });
}

TEST(CollectiveFuzz, LongRandomSequenceUnderOversubscription) {
  // 25 ranks on 2 cores running 60 mixed collectives: exercises barrier
  // generation wraparound and heavy contention.
  Runtime::run(25, [](Comm& world) {
    for (int i = 0; i < 60; ++i) {
      const auto v = world.allgather(static_cast<std::int64_t>(world.rank() + i));
      EXPECT_EQ(v[0], static_cast<std::int64_t>(i));
    }
  });
}

}  // namespace
}  // namespace drcm::mps
