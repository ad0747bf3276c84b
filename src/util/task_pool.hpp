#pragma once

/// \file task_pool.hpp
/// Clock-seam-aware task pool with pollable futures.
///
/// TaskPool is the execution substrate of the pipelined block executor
/// (DESIGN.md "Execution engines"): worker nodes overlap DMS loads and
/// block decodes with computation by submitting them here. Two properties
/// distinguish it from a generic thread pool:
///
///   * Every pool thread participates in the util::Clock announced-thread
///     protocol (announce_thread before spawn, thread_begin/thread_end in
///     the body, join_thread on close), so the pool is schedulable by
///     sim::VirtualClock and the whole async path stays deterministic
///     under DST.
///   * All waits are util::ClockCondition waits: an idle pool thread wakes
///     when a task is queued and Future::get() when its task settles, and
///     under a cooperative virtual clock both park, releasing the token.
///
/// Futures are single-producer single-consumer: get() may be called once.
/// A queued task can be cancelled (cancel() returns true iff the task will
/// never run); a running task always completes. Cancelling drops the
/// stored callable immediately, so RAII resources captured by the task
/// (e.g. DMS in-flight accounting tokens) settle at cancellation time.

#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/clock.hpp"

namespace vira::util {

template <typename T>
class Future;

/// Thrown by Future::get() when the task was cancelled before running.
struct TaskCancelled : std::runtime_error {
  TaskCancelled() : std::runtime_error("task cancelled before execution") {}
};

namespace detail {

/// Type-erased task record shared between the pool and one Future.
class TaskStateBase {
 public:
  enum class Status { kQueued, kRunning, kDone, kFailed, kCancelled };

  virtual ~TaskStateBase() = default;

  /// Pool side: runs the task if still queued (no-op if cancelled).
  void execute() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (status_ != Status::kQueued) {
        return;
      }
      status_ = Status::kRunning;
    }
    Status next = Status::kDone;
    try {
      run_impl();
    } catch (...) {
      error_ = std::current_exception();
      next = Status::kFailed;
    }
    drop_fn();  // release captured resources at completion, not future teardown
    {
      std::lock_guard<std::mutex> lock(mutex_);
      status_ = next;
    }
    settled_cv_.notify_all();
  }

  /// Consumer side: true iff the task had not started (it never will now).
  bool cancel() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (status_ != Status::kQueued) {
        return false;
      }
      status_ = Status::kCancelled;
    }
    drop_fn();
    settled_cv_.notify_all();
    return true;
  }

  bool settled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return settled_locked();
  }

  /// Waits until settled or `deadline`; true iff settled.
  bool wait_settled(Clock::TimePoint deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    return settled_cv_.wait_until(lock, deadline, [this] { return settled_locked(); });
  }

 protected:
  virtual void run_impl() = 0;
  virtual void drop_fn() = 0;

  bool settled_locked() const {
    return status_ == Status::kDone || status_ == Status::kFailed ||
           status_ == Status::kCancelled;
  }

  mutable std::mutex mutex_;
  ClockCondition settled_cv_;
  Status status_ = Status::kQueued;
  std::exception_ptr error_;

  template <typename T>
  friend class TaskState;
  template <typename T>
  friend class ::vira::util::Future;
};

template <typename T>
class TaskState final : public TaskStateBase {
 public:
  explicit TaskState(std::function<T()> fn) : fn_(std::move(fn)) {}

  /// Pre-settled state (cache hits and other ready values).
  static std::shared_ptr<TaskState> make_ready(T value) {
    auto state = std::make_shared<TaskState>(std::function<T()>{});
    state->value_.emplace(std::move(value));
    state->status_ = Status::kDone;
    return state;
  }

  T take() {
    std::lock_guard<std::mutex> lock(mutex_);
    T out = std::move(*value_);
    value_.reset();
    return out;
  }

 private:
  void run_impl() override { value_.emplace(fn_()); }
  void drop_fn() override { fn_ = nullptr; }

  std::function<T()> fn_;
  std::optional<T> value_;
};

}  // namespace detail

/// Handle to one submitted task. Copyable (shared state); get() is
/// single-shot — the value is moved out.
template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the task is done, failed, or cancelled.
  bool ready() const { return state_ && state_->settled(); }

  /// Waits up to `budget`; true iff the task settled in time.
  bool wait_for(std::chrono::nanoseconds budget) const {
    return state_ && state_->wait_settled(clock_deadline(budget));
  }

  /// Blocks until settled, then returns the value, rethrows the task's
  /// exception, or throws TaskCancelled. Call at most once.
  T get() {
    if (!state_) {
      throw std::logic_error("Future::get on an invalid future");
    }
    (void)state_->wait_settled(Clock::TimePoint::max());
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(state_->mutex_);
      if (state_->status_ == detail::TaskStateBase::Status::kCancelled) {
        throw TaskCancelled();
      }
      error = state_->error_;
    }
    if (error) {
      std::rethrow_exception(error);
    }
    return state_->take();
  }

  /// True iff the task had not started and will now never run.
  bool cancel() const { return state_ && state_->cancel(); }

  /// An already-settled future holding `value` (no pool involved).
  static Future ready_value(T value) {
    Future f;
    f.state_ = detail::TaskState<T>::make_ready(std::move(value));
    return f;
  }

 private:
  friend class TaskPool;
  std::shared_ptr<detail::TaskState<T>> state_;
};

/// Fixed-size pool of clock-announced worker threads.
class TaskPool {
 public:
  /// `name` must be unique per live pool in a DST process (participant
  /// names key the virtual clock). Threads are named "<name>.<i>".
  /// `threads == 0` makes submit() run tasks inline on the caller.
  explicit TaskPool(int threads, std::string name = std::string());
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int thread_count() const { return static_cast<int>(threads_.size()); }
  std::size_t queued() const;

  /// Stops accepting work, cancels tasks that have not started, joins the
  /// pool threads. Idempotent; called by the destructor.
  void close();

  template <typename Fn, typename T = std::invoke_result_t<Fn>>
  Future<T> submit(Fn fn) {
    static_assert(!std::is_void_v<T>, "TaskPool futures carry a value");
    auto state = std::make_shared<detail::TaskState<T>>(std::function<T()>(std::move(fn)));
    Future<T> future;
    future.state_ = state;
    if (!enqueue(state)) {
      // Closed or zero threads: run inline (or settle as cancelled if closed).
      if (closed_.load(std::memory_order_acquire)) {
        state->cancel();
      } else {
        state->execute();
      }
    }
    return future;
  }

 private:
  bool enqueue(std::shared_ptr<detail::TaskStateBase> task);
  void worker_loop();

  mutable std::mutex mutex_;
  ClockCondition work_cv_;  ///< queue_ non-empty or closed_
  std::mutex close_mutex_;  ///< serializes close(); held across thread joins
  std::deque<std::shared_ptr<detail::TaskStateBase>> queue_;
  std::atomic<bool> closed_{false};
  std::vector<std::thread> threads_;
  std::string name_;
};

}  // namespace vira::util
