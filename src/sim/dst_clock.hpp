#pragma once

/// \file dst_clock.hpp
/// Cooperative virtual clock for deterministic simulation testing (DST).
///
/// The real scheduler / worker / DMS stack is multithreaded; what makes it
/// nondeterministic is the OS scheduler and the wall clock. VirtualClock
/// removes both: it implements util::Clock with a *token machine* — exactly
/// one participant thread holds the run token at any instant, every
/// blocking point in the product (clock_sleep and util::ClockCondition
/// waits, which carry the mailbox and the fault transport's delays)
/// releases the token, and virtual time advances only when nothing is
/// runnable, by jumping to the earliest parked deadline. The schedule is a
/// pure function of the participants' behavior, so a seeded scenario
/// replays bit-identically — and months of virtual heartbeat/death-timeout
/// time elapse in milliseconds of real time.
///
/// Thread model:
///   * The driver thread enters via register_driver() and initially holds
///     the token.
///   * Product threads are announced by their *spawning* thread
///     (Clock::announce_thread) before the std::thread exists, which
///     reserves their scheduling slot at a deterministic point; the spawned
///     body brackets itself with thread_begin()/thread_end().
///   * join_thread() lets a participant leave the machine (token released)
///     while it really blocks in std::thread::join, then re-enters. Only
///     teardown paths join, after the trajectory hash is finalized, so the
///     re-entry's racing with the OS does not affect measured determinism.
///
/// tsan note: every token hand-off goes through one mutex, so consecutive
/// token holders are linked by a release/acquire chain — the serialized
/// schedule is also a data-race-free schedule.

#include <chrono>
#include <condition_variable>
#include <iosfwd>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.hpp"

namespace vira::sim {

class VirtualClock final : public util::Clock {
 public:
  using Nanos = std::int64_t;

  /// One cooperating thread. Owned by the clock; pointers stay valid until
  /// the clock is destroyed (threads are joined before that).
  struct Participant {
    explicit Participant(std::string participant_name) : name(std::move(participant_name)) {}
    std::string name;
    std::condition_variable cv;
    bool granted = false;   ///< token offered; predicate for cv waits
    bool waiting = false;   ///< parked in waiting_ with a deadline
    bool finished = false;
    Nanos deadline = 0;
    std::uint64_t wait_seq = 0;  ///< tie-break for equal deadlines (FIFO)
    /// The condition a wait_until() parks on (nullptr for other parks).
    const std::condition_variable* parked_on = nullptr;
  };

  /// Deadline of a park that only a wake ends; never advances time.
  static constexpr Nanos kNever = std::numeric_limits<Nanos>::max();

  VirtualClock() = default;
  ~VirtualClock() override = default;
  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  /// --- util::Clock ---------------------------------------------------------
  std::chrono::steady_clock::time_point now() override {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(now_ns_.load(std::memory_order_relaxed)));
  }
  void sleep_for(std::chrono::nanoseconds duration) override;
  void announce_thread(const std::string& name) override;
  void thread_begin(const std::string& name) override;
  void thread_end() override;
  void join_thread(std::thread& thread) override;
  /// Parks the calling participant until notify(cv) or `deadline`; a
  /// non-participant caller really waits on `cv`.
  void wait_until(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                  TimePoint deadline) override;
  /// Wakes participants parked on `cv` in park order, and real waiters.
  void notify(std::condition_variable& cv, bool all) override;

  /// --- driver --------------------------------------------------------------
  /// Turns the calling thread into a participant that immediately holds the
  /// token. Call once, before any product thread is announced.
  void register_driver(const std::string& name = "driver");
  /// Ends the driver's participation (same as thread_end()).
  void unregister_driver();

  /// Virtual time in nanoseconds since the machine started.
  Nanos now_ns() const { return now_ns_.load(std::memory_order_relaxed); }

  /// Token hand-offs so far (diagnostic; deterministic per scenario).
  std::uint64_t switches() const { return switches_.load(std::memory_order_relaxed); }

  /// Dumps participant state to `out` — the post-mortem for a machine
  /// that stopped making progress. Safe to call from a non-participant
  /// thread (takes the machine lock; the token holder is only ever blocked
  /// on product-level mutexes, never this one, while it runs).
  void dump_state(std::ostream& out);

 private:
  /// All _locked members require the lock returned by acquire().
  std::unique_lock<std::mutex> acquire() { return std::unique_lock<std::mutex>(mutex_); }
  /// Moves a parked participant to the ready queue (FIFO). No-op if it is
  /// not currently parked.
  void wake_locked(Participant* p);
  void grant_locked(Participant* p);
  void release_token_locked();
  void block_self_locked(std::unique_lock<std::mutex>& lock, Nanos deadline_ns);
  /// Picks the next runnable participant, advancing virtual time if needed.
  void schedule_next_locked();

  static thread_local Participant* tls_self_;

  mutable std::mutex mutex_;
  std::atomic<Nanos> now_ns_{0};
  bool token_held_ = false;
  std::uint64_t next_seq_ = 0;
  std::atomic<std::uint64_t> switches_{0};

  /// Runnable participants, FIFO. The front is granted next.
  std::deque<Participant*> ready_;
  /// Parked participants with deadlines (unordered; scanned on advance).
  std::vector<Participant*> waiting_;

  /// Ordered by name so per-scenario iteration (if ever needed) is
  /// deterministic; owns the Participant storage.
  std::map<std::string, std::unique_ptr<Participant>> participants_;
};

}  // namespace vira::sim
