// Unit tests for the reusable, poisonable SPMD barrier in both wait regimes.
#include "mpsim/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "mpsim/comm.hpp"

namespace drcm::mps {
namespace {

using namespace std::chrono_literals;

// Long enough that a kSpinThenPark waiter is still spinning whenever the
// test acts on it: it never reaches the condvar.
constexpr std::chrono::nanoseconds kSpinForever = 1h;

class BarrierRegimes : public ::testing::TestWithParam<WaitPolicy> {};

TEST_P(BarrierRegimes, SingleParticipantNeverBlocks) {
  PoisonableBarrier b(1, GetParam());
  for (int i = 0; i < 100; ++i) b.arrive_and_wait();
  EXPECT_EQ(b.participants(), 1);
}

TEST_P(BarrierRegimes, RejectsNonPositiveParticipantCount) {
  EXPECT_THROW(PoisonableBarrier(0, GetParam()), CheckError);
  EXPECT_THROW(PoisonableBarrier(-3, GetParam()), CheckError);
}

TEST_P(BarrierRegimes, CrossingOrdersPlainWritesBeforeReads) {
  // Every thread writes its own plain (non-atomic) slot, crosses, and reads
  // every slot. Slots are double-buffered by generation parity, so one
  // crossing per generation suffices: a thread can only rewrite a buffer
  // after the NEXT crossing, which every reader of it must have reached.
  // A missing happens-before edge shows up as a stale value here, and as a
  // data race under ThreadSanitizer.
  constexpr int kThreads = 4;
  const int generations = GetParam() == WaitPolicy::kSpinThenPark
                              ? 100'000 : 20'000;
  PoisonableBarrier barrier(kThreads, GetParam());
  std::vector<std::int64_t> slots[2] = {std::vector<std::int64_t>(kThreads),
                                        std::vector<std::int64_t>(kThreads)};
  std::atomic<std::int64_t> stale{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::int64_t bad = 0;
      for (int g = 0; g < generations; ++g) {
        auto& board = slots[g % 2];
        board[static_cast<std::size_t>(t)] =
            static_cast<std::int64_t>(g) * kThreads + t;
        barrier.arrive_and_wait();
        for (int r = 0; r < kThreads; ++r) {
          if (board[static_cast<std::size_t>(r)] !=
              static_cast<std::int64_t>(g) * kThreads + r) {
            ++bad;
          }
        }
      }
      stale.fetch_add(bad, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stale.load(), 0);
}

TEST_P(BarrierRegimes, PoisonWakesAWaiterWithPoisonedError) {
  // kPark sleeps on the condvar at once; kSpinThenPark with an unbounded
  // budget is still spinning when the poison lands.
  PoisonableBarrier barrier(2, GetParam(), nullptr, kSpinForever);
  std::atomic<bool> threw{false};
  std::thread waiter([&] {
    try {
      barrier.arrive_and_wait();
    } catch (const PoisonedError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(20ms);
  barrier.poison();
  waiter.join();
  EXPECT_TRUE(threw.load());
  // Later arrivals throw at once.
  EXPECT_THROW(barrier.arrive_and_wait(), PoisonedError);
}

TEST_P(BarrierRegimes, WatchdogFiresWhenAPeerNeverArrives) {
  Watchdog watchdog;
  watchdog.seconds = 0.05;
  watchdog.diagnostic = [] { return std::string("rank 1: <stalled>"); };
  PoisonableBarrier barrier(2, GetParam(), &watchdog, kSpinForever);
  const auto start = std::chrono::steady_clock::now();
  try {
    barrier.arrive_and_wait();  // rank 1 never arrives
    FAIL() << "the watchdog did not fire";
  } catch (const WatchdogTimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("barrier watchdog fired"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1: <stalled>"), std::string::npos) << what;
  }
  EXPECT_GE(std::chrono::steady_clock::now() - start, 50ms);
  // The timed-out barrier is poisoned for everyone else.
  EXPECT_THROW(barrier.arrive_and_wait(), PoisonedError);
}

TEST_P(BarrierRegimes, CompletedGenerationWinsOverALatePoison) {
  // A waiter whose generation completed returns normally even if the
  // barrier is poisoned right after; only the next crossing throws.
  constexpr int kThreads = 3;
  PoisonableBarrier barrier(kThreads, GetParam());
  std::atomic<int> returned{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      barrier.arrive_and_wait();
      returned.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  barrier.poison();
  EXPECT_EQ(returned.load(), kThreads);
  EXPECT_THROW(barrier.arrive_and_wait(), PoisonedError);
}

INSTANTIATE_TEST_SUITE_P(
    Mpsim, BarrierRegimes,
    ::testing::Values(WaitPolicy::kPark, WaitPolicy::kSpinThenPark),
    [](const ::testing::TestParamInfo<WaitPolicy>& info) {
      return info.param == WaitPolicy::kPark ? "Park" : "SpinThenPark";
    });

TEST(WaitPolicyRule, SpinsOnlyWhenRankThreadsFitTheCores) {
  EXPECT_EQ(choose_wait_policy(4, 4), WaitPolicy::kSpinThenPark);
  EXPECT_EQ(choose_wait_policy(1, 1), WaitPolicy::kSpinThenPark);
  EXPECT_EQ(choose_wait_policy(2, 4), WaitPolicy::kSpinThenPark);
  EXPECT_EQ(choose_wait_policy(16, 4), WaitPolicy::kPark);
  EXPECT_EQ(choose_wait_policy(9, 4), WaitPolicy::kPark);
  EXPECT_EQ(choose_wait_policy(5, 4), WaitPolicy::kPark);
}

TEST(WaitPolicyRule, UsableCoresIsPositive) { EXPECT_GE(usable_cores(), 1); }

}  // namespace
}  // namespace drcm::mps
