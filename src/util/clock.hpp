#pragma once

/// \file clock.hpp
/// The injectable time source of the runtime (DESIGN.md "Testing strategy").
///
/// Every component that reads the time, sleeps or blocks — scheduler
/// liveness deadlines, worker heartbeats, DMS and comm waits, wall/phase
/// timers — does so through the process-global Clock so deterministic simulation
/// testing (sim::VirtualClock) can replace real time wholesale. The default
/// RealClock forwards to std::chrono::steady_clock / this_thread::sleep_for
/// with no behavioral change.
///
/// The thread hooks exist for cooperative schedulers: a virtual clock must
/// know every participating thread to serialize them deterministically.
/// announce_thread() is called by the *spawning* thread before it creates a
/// std::thread (reserving a deterministic schedule slot under a unique
/// name); thread_begin()/thread_end() bracket the spawned thread's body;
/// join_thread() replaces a raw std::thread::join() so a cooperative clock
/// can release its scheduling token while really blocking. All four are
/// no-ops on RealClock. spawn_thread() does the first three in order.
///
/// Blocking waits go through the same seam: wait_until()/notify() are a
/// condition variable in real time, and a cooperative clock parks the
/// waiter (releasing its token) until the notify or the deadline instead.
/// Product code uses them through ClockCondition, so every wait wakes on
/// the state change it waits for, in real and in virtual time alike.

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace vira::util {

class Clock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  virtual ~Clock() = default;

  virtual TimePoint now() = 0;
  virtual void sleep_for(std::chrono::nanoseconds duration) = 0;

  /// --- cooperative-scheduling hooks (no-ops in real time) ------------------
  virtual void announce_thread(const std::string& /*name*/) {}
  virtual void thread_begin(const std::string& /*name*/) {}
  virtual void thread_end() {}
  virtual void join_thread(std::thread& thread) {
    if (thread.joinable()) {
      thread.join();
    }
  }

  /// --- event-driven waits --------------------------------------------------
  /// Blocks until notify(cv) or `deadline` (TimePoint::max(): no deadline),
  /// with `lock` released meanwhile and held again on return. Spurious
  /// returns are allowed; callers re-check their predicate.
  virtual void wait_until(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                          TimePoint deadline) {
    if (deadline == TimePoint::max()) {
      cv.wait(lock);
    } else {
      cv.wait_until(lock, deadline);
    }
  }
  /// Wakes every waiter of `cv` (`all`) or at least one.
  virtual void notify(std::condition_variable& cv, bool all) {
    if (all) {
      cv.notify_all();
    } else {
      cv.notify_one();
    }
  }
};

/// Real time: steady_clock + this_thread::sleep_for.
class RealClock final : public Clock {
 public:
  std::chrono::steady_clock::time_point now() override {
    return std::chrono::steady_clock::now();
  }
  void sleep_for(std::chrono::nanoseconds duration) override {
    if (duration.count() > 0) {
      std::this_thread::sleep_for(duration);
    }
  }
};

/// The process-global clock (RealClock until overridden).
Clock& global_clock() noexcept;

/// Installs `clock` as the global time source; nullptr restores RealClock.
/// Not thread-safe against concurrent time reads — install before the
/// threads under test start (the DST harness does this around each
/// scenario, on an otherwise quiescent process).
void set_global_clock(Clock* clock) noexcept;

inline std::chrono::steady_clock::time_point clock_now() { return global_clock().now(); }

/// Runs `body` on a new thread that takes part in the global clock's
/// schedule as `name` (unique per process): announced before the thread
/// exists, begun and ended around `body`. Join it with
/// global_clock().join_thread().
std::thread spawn_thread(std::string name, std::function<void()> body);

template <typename Rep, typename Period>
inline void clock_sleep(std::chrono::duration<Rep, Period> duration) {
  global_clock().sleep_for(std::chrono::duration_cast<std::chrono::nanoseconds>(duration));
}

/// clock_now() + `timeout`, saturating at TimePoint::max() (no deadline).
template <typename Rep, typename Period>
inline Clock::TimePoint clock_deadline(std::chrono::duration<Rep, Period> timeout) {
  const auto now = clock_now();
  const auto left = Clock::TimePoint::max() - now;
  if (timeout >= left) {
    return Clock::TimePoint::max();
  }
  return now + std::chrono::duration_cast<Clock::TimePoint::duration>(timeout);
}

/// A condition variable whose waits go through the global Clock: woken by
/// notify_*() in real time and under sim::VirtualClock alike. Guard the
/// predicate's state with the mutex passed to the waits, as with
/// std::condition_variable. Never wait while holding another mutex a
/// notifier needs: under a cooperative clock that blocks the machine.
class ClockCondition {
 public:
  /// Waits until `ready()` or clock_now() reaches `deadline`; returns
  /// `ready()`.
  template <typename Pred>
  bool wait_until(std::unique_lock<std::mutex>& lock, Clock::TimePoint deadline, Pred ready) {
    while (!ready()) {
      if (deadline != Clock::TimePoint::max() && clock_now() >= deadline) {
        return false;
      }
      global_clock().wait_until(cv_, lock, deadline);
    }
    return true;
  }

  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lock, Pred ready) {
    (void)wait_until(lock, Clock::TimePoint::max(), std::move(ready));
  }

  void notify_one() { global_clock().notify(cv_, false); }
  void notify_all() { global_clock().notify(cv_, true); }

 private:
  std::condition_variable cv_;
};

}  // namespace vira::util
