#pragma once

/// \file transport.hpp
/// Abstract rank-addressed transport (paper layer 1).
///
/// A Transport delivers Messages between a fixed set of endpoints
/// (0..size-1). Delivery is reliable and FIFO per (sender, receiver) pair —
/// the guarantees MPI point-to-point gives, which the middle layer's
/// collectives rely on. Implementations: InProcTransport (threads sharing
/// mailboxes — the role MPI played on the paper's shared-memory SUN Fire)
/// and, for the client link, the framed stream in `client_link.hpp`.
/// Decorators may weaken the guarantees deliberately: FaultInjectingTransport
/// (fault_transport.hpp) drops/delays/duplicates messages and crashes ranks
/// to exercise the runtime's failure model (DESIGN.md "Failure model"), in
/// real time and, over the same InProcTransport, under DST's virtual clock.

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "comm/message.hpp"
#include "util/blocking_queue.hpp"

namespace vira::comm {

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int size() const = 0;

  /// Delivers `msg` (whose `source` must already be set) to endpoint `dest`.
  /// Throws std::out_of_range for bad endpoints. Sends to a shut-down
  /// transport are dropped silently (shutdown is a teardown race, not an
  /// error).
  virtual void send(int dest, Message msg) = 0;

  /// Takes the next message addressed to endpoint `self`, blocking up to
  /// `timeout`. Returns nullopt on timeout or when the transport has shut
  /// down and the mailbox is drained.
  virtual std::optional<Message> recv(int self, std::chrono::milliseconds timeout) = 0;

  /// Releases all blocked receivers; subsequent sends are dropped.
  virtual void shutdown() = 0;

  /// True once shutdown() has been called.
  virtual bool is_shut_down() const = 0;
};

/// Shared-memory transport: one blocking mailbox per endpoint.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(int size);

  int size() const override { return static_cast<int>(mailboxes_.size()); }
  void send(int dest, Message msg) override;
  std::optional<Message> recv(int self, std::chrono::milliseconds timeout) override;
  void shutdown() override;
  bool is_shut_down() const override;

 private:
  std::vector<std::unique_ptr<util::BlockingQueue<Message>>> mailboxes_;
};

}  // namespace vira::comm
