#pragma once

/// \file fault_transport.hpp
/// Fault-injecting Transport decorator (failure-model test harness).
///
/// Wraps any Transport and, driven by a seeded util::Rng, perturbs the
/// message flow the way flaky interconnects and dying nodes do in the
/// remote/distributed visualization deployments that followed Viracocha:
///
///   * drop      — the message silently never arrives,
///   * duplicate — the message is delivered twice,
///   * delay     — the message is held back by a background thread and
///                 delivered late (breaking FIFO, as reordering networks do),
///   * kill_rank — a rank "crashes": nothing is delivered to or from it any
///                 more, mid-request, until global shutdown.
///
/// With all rates at zero and no killed ranks the decorator is a strict
/// pass-through — zero behavior change — so the same test suite can run
/// with and without faults. All methods are thread-safe (the wrapped
/// Transport already must be).
///
/// Time goes through the util::Clock seam: the delay thread starts with
/// util::spawn_thread and waits on a util::ClockCondition, so under
/// sim::VirtualClock a message delayed d ms arrives exactly d virtual ms
/// after its send, and messages due at the same instant arrive in send
/// order. Every delivery, drop and kill, and the shutdown, folds into an
/// FNV-1a trajectory hash; under a virtual clock two runs of one seeded
/// scenario must produce the same hash (the DST determinism check).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "comm/transport.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace vira::comm {

/// Probabilities are per message, evaluated independently in the order
/// drop → duplicate → delay.
struct FaultInjectionConfig {
  std::uint64_t seed = 0x5eedULL;
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  double delay_rate = 0.0;
  /// Delayed messages are held a uniform [1, max_delay] ms.
  std::chrono::milliseconds max_delay{5};
};

/// Counters of everything the injector did (for benches and assertions).
struct FaultInjectionStats {
  std::uint64_t forwarded = 0;   ///< messages passed through unharmed
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t suppressed_dead = 0;  ///< messages to/from killed ranks
};

class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(std::shared_ptr<Transport> inner, FaultInjectionConfig config);
  ~FaultInjectingTransport() override;

  int size() const override { return inner_->size(); }
  void send(int dest, Message msg) override;
  std::optional<Message> recv(int self, std::chrono::milliseconds timeout) override;
  void shutdown() override;
  bool is_shut_down() const override { return inner_->is_shut_down(); }

  /// Simulates a crash of `rank`: from now on nothing is delivered to or
  /// from it. Irreversible (a crashed process does not come back).
  void kill_rank(int rank);
  bool is_dead(int rank) const;
  std::size_t dead_count() const;

  FaultInjectionStats stats() const;

  /// FNV-1a over every transport event so far: (kind, clock time, source,
  /// dest, tag, byte count, payload bytes then body bytes), so a blob sent
  /// as a body hashes as it did inside the payload. Read it at a quiescent
  /// point (under DST, with the driver holding the token) for a stable
  /// per-scenario value.
  std::uint64_t trajectory_hash() const;
  std::uint64_t event_count() const;

 private:
  bool faults_possible() const {
    return config_.drop_rate > 0.0 || config_.duplicate_rate > 0.0 || config_.delay_rate > 0.0;
  }
  /// True iff neither end of a message from `source` to `dest` is dead;
  /// counts the suppression otherwise.
  bool reachable_locked(int source, int dest);
  /// Folds one event into the hash; `msg` is null for a kill or shutdown.
  void record_locked(char kind, int a, int b, const Message* msg);
  void delay_loop();

  std::shared_ptr<Transport> inner_;
  FaultInjectionConfig config_;

  mutable std::mutex mutex_;  ///< guards everything below
  util::Rng rng_;
  std::set<int> dead_;
  FaultInjectionStats stats_;
  std::uint64_t hash_ = 14695981039346656037ull;  ///< FNV-1a offset basis
  std::uint64_t events_ = 0;

  /// Delayed messages by due time; equal due times keep send order. The
  /// delay thread runs only when delay_rate > 0.
  std::multimap<util::Clock::TimePoint, std::pair<int, Message>> delayed_;
  util::ClockCondition delay_cv_;
  bool stopping_ = false;
  std::thread delay_thread_;
};

}  // namespace vira::comm
