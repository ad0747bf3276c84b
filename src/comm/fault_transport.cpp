#include "comm/fault_transport.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace vira::comm {

namespace {
/// Fault-injection instruments, mirrored into the shared registry so the
/// metrics dump shows injected chaos next to the recovery counters.
struct FaultMetrics {
  obs::Counter& dropped = obs::Registry::instance().counter("fault.dropped");
  obs::Counter& duplicated = obs::Registry::instance().counter("fault.duplicated");
  obs::Counter& delayed = obs::Registry::instance().counter("fault.delayed");
  obs::Counter& suppressed_dead = obs::Registry::instance().counter("fault.suppressed_dead");
  obs::Counter& killed = obs::Registry::instance().counter("fault.killed_ranks");
};

FaultMetrics& fault_metrics() {
  static FaultMetrics* instruments = new FaultMetrics();
  return *instruments;
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}
}  // namespace

FaultInjectingTransport::FaultInjectingTransport(std::shared_ptr<Transport> inner,
                                                 FaultInjectionConfig config)
    : inner_(std::move(inner)), config_(config), rng_(config.seed) {
  if (!inner_) {
    throw std::invalid_argument("FaultInjectingTransport: inner transport required");
  }
  if (config_.drop_rate < 0.0 || config_.drop_rate > 1.0 || config_.duplicate_rate < 0.0 ||
      config_.duplicate_rate > 1.0 || config_.delay_rate < 0.0 || config_.delay_rate > 1.0) {
    throw std::invalid_argument("FaultInjectingTransport: rates must be in [0, 1]");
  }
  if (config_.delay_rate > 0.0) {
    delay_thread_ = util::spawn_thread("fault.delay", [this] { delay_loop(); });
  }
}

FaultInjectingTransport::~FaultInjectingTransport() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  delay_cv_.notify_all();
  if (delay_thread_.joinable()) {
    util::global_clock().join_thread(delay_thread_);
  }
}

bool FaultInjectingTransport::reachable_locked(int source, int dest) {
  if (dead_.count(dest) == 0 && dead_.count(source) == 0) {
    return true;
  }
  ++stats_.suppressed_dead;
  fault_metrics().suppressed_dead.add();
  return false;
}

void FaultInjectingTransport::record_locked(char kind, int a, int b, const Message* msg) {
  ++events_;
  const std::int64_t fields[] = {
      kind,
      std::chrono::duration_cast<std::chrono::nanoseconds>(util::clock_now().time_since_epoch())
          .count(),
      a,
      b,
      msg ? msg->tag : 0,
      msg ? static_cast<std::int64_t>(msg->byte_size()) : 0};
  hash_ = fnv1a(hash_, fields, sizeof(fields));
  if (msg) {
    hash_ = fnv1a(hash_, msg->payload.data(), msg->payload.size());
    if (msg->body) {
      hash_ = fnv1a(hash_, msg->body->data(), msg->body->size());
    }
  }
}

void FaultInjectingTransport::send(int dest, Message msg) {
  if (dest < 0 || dest >= size()) {
    // Checked here, not by the inner send: a delayed message would throw on
    // the delay thread instead of at the caller.
    throw std::out_of_range("FaultInjectingTransport::send: bad destination endpoint");
  }
  bool duplicate = false;
  std::chrono::milliseconds delay{0};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!reachable_locked(msg.source, dest)) {
      return;
    }
    if (faults_possible()) {
      if (config_.drop_rate > 0.0 && rng_.next_double() < config_.drop_rate) {
        ++stats_.dropped;
        fault_metrics().dropped.add();
        record_locked('D', msg.source, dest, &msg);
        return;
      }
      if (config_.duplicate_rate > 0.0 && rng_.next_double() < config_.duplicate_rate) {
        ++stats_.duplicated;
        fault_metrics().duplicated.add();
        duplicate = true;
      }
      if (config_.delay_rate > 0.0 && rng_.next_double() < config_.delay_rate) {
        ++stats_.delayed;
        fault_metrics().delayed.add();
        const auto span = std::max<std::int64_t>(1, config_.max_delay.count());
        delay = std::chrono::milliseconds(
            1 + static_cast<std::int64_t>(rng_.next_below(static_cast<std::uint64_t>(span))));
      }
    }
    ++stats_.forwarded;
    if (delay.count() > 0) {
      const auto due = util::clock_now() + delay;
      if (duplicate) {  // the twin copies the payload and shares the body
        delayed_.emplace(due, std::make_pair(dest, msg));
      }
      delayed_.emplace(due, std::make_pair(dest, std::move(msg)));
    } else {
      for (int copy = duplicate ? 2 : 1; copy > 0; --copy) {
        record_locked('d', msg.source, dest, &msg);
      }
    }
  }
  if (delay.count() > 0) {
    delay_cv_.notify_one();
    return;
  }
  if (duplicate) {
    inner_->send(dest, msg);
  }
  inner_->send(dest, std::move(msg));
}

std::optional<Message> FaultInjectingTransport::recv(int self, std::chrono::milliseconds timeout) {
  auto msg = inner_->recv(self, timeout);
  if (!msg) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // A crashed rank reads nothing; mail from a crashed rank (queued before
  // the crash) is discarded, like an undelivered socket buffer.
  if (!reachable_locked(msg->source, self)) {
    return std::nullopt;
  }
  return msg;
}

void FaultInjectingTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      stopping_ = true;
      record_locked('X', -1, -1, nullptr);
    }
  }
  delay_cv_.notify_all();
  inner_->shutdown();
}

void FaultInjectingTransport::kill_rank(int rank) {
  if (rank < 0 || rank >= size()) {
    throw std::out_of_range("FaultInjectingTransport::kill_rank: bad rank");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dead_.insert(rank).second) {
      return;
    }
    record_locked('K', rank, -1, nullptr);
  }
  fault_metrics().killed.add();
  VIRA_WARN("fault") << "rank " << rank << " killed (delivery suppressed)";
}

bool FaultInjectingTransport::is_dead(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dead_.count(rank) > 0;
}

std::size_t FaultInjectingTransport::dead_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dead_.size();
}

FaultInjectionStats FaultInjectingTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::uint64_t FaultInjectingTransport::trajectory_hash() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hash_;
}

std::uint64_t FaultInjectingTransport::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void FaultInjectingTransport::delay_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (delayed_.empty()) {
      delay_cv_.wait(lock, [&] { return stopping_ || !delayed_.empty(); });
      continue;
    }
    // Sleep until the earliest due time, or until a send queues an earlier
    // one (only this thread removes entries, so begin() stays valid).
    const auto due = delayed_.begin()->first;
    if (delay_cv_.wait_until(lock, due,
                             [&] { return stopping_ || delayed_.begin()->first < due; })) {
      continue;
    }
    auto item = delayed_.extract(delayed_.begin());
    auto& [dest, msg] = item.mapped();
    // The destination (or sender) may have been killed while the message
    // was in flight.
    if (!reachable_locked(msg.source, dest)) {
      continue;
    }
    record_locked('d', msg.source, dest, &msg);
    lock.unlock();
    inner_->send(dest, std::move(msg));
    lock.lock();
  }
}

}  // namespace vira::comm
