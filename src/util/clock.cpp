#include "util/clock.hpp"

#include <atomic>

namespace vira::util {

namespace {
RealClock& real_clock() noexcept {
  static RealClock instance;
  return instance;
}

std::atomic<Clock*>& global_slot() noexcept {
  static std::atomic<Clock*> slot{nullptr};
  return slot;
}
}  // namespace

Clock& global_clock() noexcept {
  Clock* installed = global_slot().load(std::memory_order_acquire);
  return installed != nullptr ? *installed : real_clock();
}

void set_global_clock(Clock* clock) noexcept {
  global_slot().store(clock, std::memory_order_release);
}

std::thread spawn_thread(std::string name, std::function<void()> body) {
  global_clock().announce_thread(name);
  return std::thread([name = std::move(name), body = std::move(body)] {
    global_clock().thread_begin(name);
    body();
    global_clock().thread_end();
  });
}

}  // namespace vira::util
