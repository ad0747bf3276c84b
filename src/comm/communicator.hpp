#pragma once

/// \file communicator.hpp
/// Rank/tag message passing with MPI-style semantics (paper layer 1/2 glue).
///
/// One Communicator instance lives on each rank's thread. On top of a
/// Transport it provides:
///   * tagged point-to-point send / blocking receive with ANY_SOURCE /
///     ANY_TAG wildcards and out-of-order matching (unmatched messages are
///     buffered, exactly like MPI's unexpected-message queue),
///   * probe / try_recv for non-blocking progress,
///   * the collectives the Viracocha runtime needs: barrier, broadcast,
///     gather, reduce-sum — implemented with reserved negative tags so they
///     never collide with user traffic.
///
/// Throws TransportClosed from blocking calls when the transport shuts
/// down — the worker loop uses that as its orderly exit path.
///
/// Thread-safety: send() is always safe; recv/try_recv/probe may be called
/// from multiple threads of the same rank concurrently — each message is
/// delivered to exactly one matching receiver. One waiting thread at a time
/// blocks on the transport; it moves whatever arrives into the
/// unexpected-message queue and wakes the other waiters, so a message
/// pulled in by a sibling thread reaches its addressee at once. All waits
/// go through the Clock seam (util::ClockCondition and the transport).

#include <chrono>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <mutex>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "comm/message.hpp"
#include "comm/transport.hpp"
#include "util/clock.hpp"

namespace vira::comm {

class TransportClosed : public std::runtime_error {
 public:
  TransportClosed() : std::runtime_error("communicator: transport shut down") {}
};

class Communicator {
 public:
  Communicator(std::shared_ptr<Transport> transport, int rank);

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return transport_->size(); }

  /// --- point to point -----------------------------------------------------
  /// Asynchronous, reliable, FIFO per destination. `tag` must be >= 0
  /// (negative tags are reserved for collectives). `body`, if any, travels
  /// by reference as the message's body (message.hpp).
  void send(int dest, int tag, util::ByteBuffer payload, util::SharedBytes body = nullptr);

  /// Blocks until a message matching (source, tag) arrives.
  /// Throws TransportClosed if the transport shuts down while waiting.
  Message recv(int source = kAnySource, int tag = kAnyTag);

  /// Non-blocking variant with timeout; nullopt on timeout.
  std::optional<Message> try_recv(int source, int tag, std::chrono::milliseconds timeout);
  /// The first message from `source` carrying any of `tags`.
  std::optional<Message> try_recv(int source, std::initializer_list<int> tags,
                                  std::chrono::milliseconds timeout);

  /// Returns (source, tag) of the first buffered or immediately available
  /// message without consuming it.
  std::optional<std::pair<int, int>> probe(std::chrono::milliseconds timeout =
                                               std::chrono::milliseconds(0));

  /// --- collectives ----------------------------------------------------------
  /// All ranks must call collectives in the same order (MPI rule).
  void barrier();
  /// Root's payload is delivered to every rank (including returned at root).
  util::ByteBuffer broadcast(util::ByteBuffer payload, int root);
  /// Returns size() payloads at root (indexed by rank), empty elsewhere.
  std::vector<util::ByteBuffer> gather(util::ByteBuffer payload, int root);
  /// Sum-reduction of a double at root (returns the partial value elsewhere).
  double reduce_sum(double value, int root);

 private:
  /// Waits for a matching message until `deadline`; `consume` false peeks.
  std::optional<Message> receive(int source, std::initializer_list<int> tags,
                                 util::Clock::TimePoint deadline, bool consume);
  /// Drains the transport, waiting for a first message until `deadline`.
  std::vector<Message> pump(util::Clock::TimePoint deadline);
  void send_internal(int dest, int tag, util::ByteBuffer payload,
                     util::SharedBytes body = nullptr);

  std::shared_ptr<Transport> transport_;
  int rank_;
  std::mutex mutex_;
  std::deque<Message> pending_;  ///< unexpected-message queue
  bool pumping_ = false;         ///< a receiver is waiting on the transport
  std::uint64_t handovers_ = 0;  ///< pumps finished; wakes mail_cv_ waiters
  util::ClockCondition mail_cv_;
};

/// Reserved (negative) tags used by the collectives.
inline constexpr int kTagBarrierArrive = -10;
inline constexpr int kTagBarrierRelease = -11;
inline constexpr int kTagBroadcast = -12;
inline constexpr int kTagGather = -13;
inline constexpr int kTagReduce = -14;

}  // namespace vira::comm
