#pragma once

/// \file blocking_queue.hpp
/// Unbounded MPMC blocking queue with close semantics.
///
/// Used as the mailbox primitive of the in-process transport, the DMS
/// prefetch queue and the client-side stream of partial results. pop()
/// blocks until an item is available or the queue is closed; a closed,
/// drained queue returns std::nullopt, which consumers treat as
/// end-of-stream. Waits go through the Clock seam (util::ClockCondition),
/// so a consumer thread of a virtual-time run parks instead of blocking
/// the machine.

#include <chrono>
#include <deque>
#include <mutex>
#include <optional>

#include "util/clock.hpp"

namespace vira::util {

template <typename T>
class BlockingQueue {
 public:
  /// Returns false if the queue is already closed (item is dropped).
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item arrives or the queue is closed and drained.
  std::optional<T> pop() { return pop_until(Clock::TimePoint::max()); }

  /// Like pop() but gives up after `timeout`; returns nullopt on timeout
  /// or on closed-and-drained.
  std::optional<T> pop_for(std::chrono::milliseconds timeout) {
    return pop_until(clock_deadline(timeout));
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    return take_locked();
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  std::optional<T> pop_until(Clock::TimePoint deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    (void)cv_.wait_until(lock, deadline, [&] { return !items_.empty() || closed_; });
    return take_locked();
  }

  std::optional<T> take_locked() {
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  mutable std::mutex mutex_;
  ClockCondition cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace vira::util
