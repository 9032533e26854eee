// Reusable phase barrier for the sharded runtime's lock-step windows.
//
// std::barrier would work, but libstdc++'s futex path is heavier than
// needed for one barrier per window, and we want explicit control over
// spinning: on a machine with fewer cores than worker threads (CI
// containers are often 1-core), spinning burns the very timeslice the
// other thread needs, so the spin budget is a constructor knob the
// runtime sets from hardware_concurrency(). Waiters spin briefly, then
// park on a condvar.
//
// The last thread to arrive runs a completion step before it releases the
// others (the runtime schedules the next window there). The generation
// handshake carries the memory-ordering obligation of the whole design:
// every write a thread made during a window (events executed, outbox
// appends, arrival minima) happens-before the completion step, because
// each arrival is an acq_rel RMW on count_; and the completion step's
// writes happen-before every thread's departure, because departure
// requires an acquire load of gen_ that observes the last arriver's
// release store.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

namespace neutrino::sim::parallel {

class PhaseBarrier {
 public:
  PhaseBarrier(std::size_t participants, int spin_budget)
      : n_(participants), spins_(spin_budget) {}

  /// Block until all `participants` threads have arrived; the last to
  /// arrive runs `on_last()` alone, then releases everyone. Reusable: the
  /// generation counter disambiguates phases.
  template <class Completion>
  void arrive_and_wait(Completion&& on_last) {
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      on_last();
      // Reset the count *before* bumping the generation, so a thread
      // released by the bump can immediately arrive at the next phase
      // without racing the reset.
      count_.store(0, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        gen_.store(gen + 1, std::memory_order_release);
      }
      cv_.notify_all();
      return;
    }
    for (int i = 0; i < spins_; ++i) {
      if (gen_.load(std::memory_order_acquire) != gen) return;
      cpu_relax();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      return gen_.load(std::memory_order_acquire) != gen;
    });
  }

  /// Spin budget that parks immediately when the machine cannot actually
  /// run all participants concurrently (oversubscribed: spinning would
  /// steal the peer's timeslice).
  static int default_spin_budget(std::size_t participants) {
    const unsigned hw = std::thread::hardware_concurrency();
    return (hw != 0 && participants > hw) ? 0 : 4096;
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  const std::size_t n_;
  const int spins_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> gen_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace neutrino::sim::parallel
