#include "util/task_pool.hpp"

#include <cstdint>

namespace vira::util {

namespace {

/// Default pool names must still be unique per process: the virtual clock
/// keys participants by name, and two pools named "pool.0" would collide.
std::string default_pool_name() {
  static std::atomic<std::uint64_t> counter{0};
  return "pool" + std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

TaskPool::TaskPool(int threads, std::string name)
    : name_(name.empty() ? default_pool_name() : std::move(name)) {
  threads_.reserve(threads > 0 ? static_cast<std::size_t>(threads) : 0);
  for (int i = 0; i < threads; ++i) {
    threads_.push_back(spawn_thread(name_ + "." + std::to_string(i), [this] { worker_loop(); }));
  }
}

TaskPool::~TaskPool() { close(); }

std::size_t TaskPool::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void TaskPool::close() {
  // close_mutex_ serializes concurrent closers: the loser blocks here until
  // the winner has joined every thread, so close() returning always means
  // the pool is quiescent and safe to destroy. Never taken by pool threads,
  // so holding it across the joins cannot deadlock.
  std::lock_guard<std::mutex> close_lock(close_mutex_);
  std::deque<std::shared_ptr<detail::TaskStateBase>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    orphans.swap(queue_);
  }
  work_cv_.notify_all();
  // Tasks that never started settle as cancelled so waiters unblock and
  // resources captured by the callables are released now.
  for (auto& task : orphans) {
    task->cancel();
  }
  for (auto& thread : threads_) {
    global_clock().join_thread(thread);
  }
  threads_.clear();
}

bool TaskPool::enqueue(std::shared_ptr<detail::TaskStateBase> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_.load(std::memory_order_acquire) || threads_.empty()) {
      return false;
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return true;
}

void TaskPool::worker_loop() {
  for (;;) {
    std::shared_ptr<detail::TaskStateBase> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        return !queue_.empty() || closed_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        return;  // closed
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task->execute();
  }
}

}  // namespace vira::util
