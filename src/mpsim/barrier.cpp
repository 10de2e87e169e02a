#include "mpsim/barrier.hpp"

#include <algorithm>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/check.hpp"
#include "mpsim/comm.hpp"

namespace drcm::mps {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

int usable_cores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

WaitPolicy choose_wait_policy(int nranks, int cores) {
  return nranks <= cores ? WaitPolicy::kSpinThenPark : WaitPolicy::kPark;
}

PoisonableBarrier::PoisonableBarrier(int n, WaitPolicy policy,
                                     const Watchdog* watchdog,
                                     std::chrono::nanoseconds spin_budget)
    : n_(n), policy_(policy), watchdog_(watchdog), spin_budget_(spin_budget) {
  DRCM_CHECK(n > 0, "barrier needs at least one participant");
}

void PoisonableBarrier::arrive_and_wait() {
  using Clock = std::chrono::steady_clock;
  if (poisoned()) throw PoisonedError{};
  // Read before arriving: the generation cannot advance past this value
  // until this participant has arrived.
  const std::uint64_t my_generation =
      generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
    // Nobody arrives for the next generation before seeing it published,
    // so the reset is ordered before every later arrival.
    arrived_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      generation_.store(my_generation + 1, std::memory_order_release);
    }
    cv_.notify_all();
    return;
  }
  const auto arrived = Clock::now();
  const double watchdog_seconds = watchdog_ ? watchdog_->seconds : 0.0;
  const auto deadline =
      watchdog_seconds > 0.0
          ? arrived + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(watchdog_seconds))
          : Clock::time_point::max();
  if (policy_ == WaitPolicy::kSpinThenPark) {
    const auto spin_until = std::min(arrived + spin_budget_, deadline);
    do {
      if (done(my_generation)) return;
      if (poisoned()) throw PoisonedError{};
      cpu_relax();
    } while (Clock::now() < spin_until);
  }
  park(my_generation, watchdog_seconds, deadline);
}

void PoisonableBarrier::park(std::uint64_t my_generation,
                             double watchdog_seconds,
                             std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto ready = [&] { return done(my_generation) || poisoned(); };
  if (watchdog_seconds <= 0.0) {
    cv_.wait(lock, ready);
  } else if (!cv_.wait_until(lock, deadline, ready)) {
    // Watchdog: the communicator never completed within budget — some
    // member is stalled (or exited without arriving). Kill this barrier
    // so fellow waiters throw PoisonedError, then report who got where;
    // the runtime's poisoning cascade reaches every other communicator.
    poisoned_.store(true, std::memory_order_release);
    cv_.notify_all();
    lock.unlock();
    throw WatchdogTimeoutError(
        "barrier watchdog fired: communicator incomplete after " +
        std::to_string(watchdog_seconds) + "s\n" +
        (watchdog_->diagnostic ? watchdog_->diagnostic() : std::string()));
  }
  if (!done(my_generation)) throw PoisonedError{};
}

void PoisonableBarrier::poison() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    poisoned_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

}  // namespace drcm::mps
