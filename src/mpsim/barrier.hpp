// Reusable, poisonable barrier for SPMD rank synchronization.
//
// Every collective in the runtime is built from barrier crossings over a
// shared "publication board" (see comm.hpp): one per plain collective, two
// for split, one per superstep of a fused level collective. The barrier
// must
//   (a) be reusable an unbounded number of times;
//   (b) establish happens-before between every participant's writes before
//       one crossing and every participant's reads after it. The chain: each
//       arrival is an acq_rel fetch_add on the arrival counter, so the last
//       arriver's RMW acquires every earlier arriver's release; the last
//       arriver then publishes the next generation with a release store,
//       and every waiter leaves only after an acquire load observes it
//       (spinning or parked alike). Board writes before arrival are thus
//       visible to every board read after the crossing;
//   (c) spin only when the rank threads fit the cores, otherwise park. A
//       waiter whose peers all own a core is woken in well under a
//       microsecond by spinning, while a futex sleep and wake costs about
//       10 µs. When the rank threads outnumber the usable cores, a
//       spinning waiter would burn the core its straggling peer needs, so
//       waiters park at once. The spin is bounded by wall time either way:
//       after kSpinBudget the waiter parks on the mutex/condvar;
//   (d) be poisonable: poison() makes every current and future waiter throw
//       PoisonedError, and an armed watchdog turns a crossing that stays
//       incomplete past its budget into WatchdogTimeoutError. Both hold in
//       either wait regime.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace drcm::mps {

/// How a waiter waits for its peers.
enum class WaitPolicy {
  kPark,          ///< sleep on the condvar right away
  kSpinThenPark,  ///< spin on the generation for kSpinBudget, then sleep
};

/// Wall-clock spin budget of a kSpinThenPark waiter before it parks.
inline constexpr std::chrono::microseconds kSpinBudget{10};

/// Cores this process may run on: sched_getaffinity where available, else
/// std::thread::hardware_concurrency (at least 1).
int usable_cores();

/// The spin rule: spin only when every rank thread can own a core, i.e.
/// `nranks <= cores`.
WaitPolicy choose_wait_policy(int nranks, int cores);

/// Watchdog settings shared by every barrier of one run.
struct Watchdog {
  /// Wall-clock budget of one crossing, counted from arrival; 0 disables.
  double seconds = 0.0;
  /// Appended to the timeout message (the runtime's per-rank table).
  std::function<std::string()> diagnostic;
};

/// Generation-counting barrier for a fixed set of `n` participants.
class PoisonableBarrier {
 public:
  /// `watchdog` may be null (no watchdog); it is read at every wait, so it
  /// must outlive the barrier and be configured before any thread waits.
  /// `spin_budget` exists for tests that need a waiter to stay spinning.
  PoisonableBarrier(int n, WaitPolicy policy,
                    const Watchdog* watchdog = nullptr,
                    std::chrono::nanoseconds spin_budget = kSpinBudget);

  PoisonableBarrier(const PoisonableBarrier&) = delete;
  PoisonableBarrier& operator=(const PoisonableBarrier&) = delete;

  /// Blocks until all `n` participants have arrived. Throws PoisonedError
  /// if the barrier is (or becomes) poisoned before this generation
  /// completes, and WatchdogTimeoutError when the watchdog budget elapses.
  void arrive_and_wait();

  /// Wakes every waiter with PoisonedError; later arrivals throw at once.
  void poison();

  int participants() const { return n_; }

 private:
  bool done(std::uint64_t my_generation) const {
    return generation_.load(std::memory_order_acquire) != my_generation;
  }
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }
  void park(std::uint64_t my_generation, double watchdog_seconds,
            std::chrono::steady_clock::time_point deadline);

  const int n_;
  const WaitPolicy policy_;
  const Watchdog* watchdog_;
  const std::chrono::nanoseconds spin_budget_;
  // Arrivals and the flags waiters spin on sit on separate cache lines, so
  // each arrival does not steal the line from the spinning waiters.
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> poisoned_{false};
  // Guards nothing the spinning path reads; it only orders a generation or
  // poison publication against a waiter about to sleep, so no wake-up is
  // lost between its predicate check and its wait.
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace drcm::mps
