#pragma once

/// \file client_link.hpp
/// Bidirectional framed message stream between the visualization client and
/// the Viracocha scheduler (the TCP/IP edge of the paper's Figure 2).
///
/// Two implementations share one interface, so the runtime does not care
/// whether the client lives in the same process (tests, examples) or talks
/// real TCP over a socket (tcp_backend_demo): exactly the protocol
/// transparency the paper's layer-1 design prescribes.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "comm/message.hpp"

namespace vira::comm {

/// --- hello (docs/PROTOCOL.md) ------------------------------------------------
///
/// A versioning client sends kTagHello as its very first message and waits
/// for kTagHelloAck before submitting. Legacy clients skip the exchange.
/// Either way the link speaks the one raw framing: the ack grants no
/// features.

/// Client → server: WireHello. Must be the first frame on the link.
inline constexpr int kTagHello = 17;
/// Server → client: WireHello with features = 0.
inline constexpr int kTagHelloAck = 18;

/// "VIRA" little-endian — rejects accidental cross-protocol connects.
inline constexpr std::uint32_t kWireMagic = 0x41524956u;
inline constexpr std::uint32_t kWireVersion = 1;

/// Payload of kTagHello / kTagHelloAck.
struct WireHello {
  std::uint32_t magic = kWireMagic;
  std::uint32_t version = kWireVersion;
  /// Reserved; acks always carry 0.
  std::uint32_t features = 0;

  void serialize(util::ByteBuffer& out) const;
  static WireHello deserialize(util::ByteBuffer& in);
};

/// Per-link wire options a client asks for when connecting.
struct WireOptions {
  /// How long to wait for the server's kTagHelloAck.
  std::chrono::milliseconds hello_timeout{5000};
};

class ClientLink {
 public:
  virtual ~ClientLink() = default;

  /// Sends one framed message. Thread-safe against itself. Sends on a
  /// closed link are dropped. A socket link (TCP client, event loop) throws
  /// std::invalid_argument for a message with a body and stays usable.
  virtual void send(Message msg) = 0;

  /// Receives the next message, blocking up to `timeout`. Returns nullopt
  /// on timeout or when the link is closed and drained. Single consumer.
  virtual std::optional<Message> recv(std::chrono::milliseconds timeout) = 0;

  virtual void close() = 0;
  virtual bool closed() const = 0;
};

/// Creates a connected pair of in-process links (A→B and B→A share queues).
/// `on_send` runs after each message A sends: B's reader can be woken the
/// way the event loop's readability callback wakes a TCP link's reader.
std::pair<std::shared_ptr<ClientLink>, std::shared_ptr<ClientLink>> make_inproc_link_pair(
    std::function<void()> on_send = {});

/// Connects to a server's TCP frontend (net::EventLoop); throws
/// std::runtime_error on failure. The link skips the hello.
std::unique_ptr<ClientLink> tcp_connect(const std::string& host, std::uint16_t port);

/// Connects and performs the hello before returning: sends kTagHello and
/// waits for kTagHelloAck. Throws on connect failure or a missing/invalid
/// ack.
std::unique_ptr<ClientLink> tcp_connect(const std::string& host, std::uint16_t port,
                                        const WireOptions& options);

}  // namespace vira::comm
