#pragma once

/// \file message.hpp
/// Wire unit of Viracocha's communication layer.
///
/// The paper's layer 1 "hides implementation details about used
/// communication protocols" — scheduler and workers talk through a generic
/// interface whether the bytes move over MPI or TCP/IP. A Message carries a
/// source endpoint, an integer tag (negative tags are reserved for the
/// framework's collectives and control traffic), an opaque payload and,
/// optionally, a shared immutable body.

#include <cstddef>
#include <cstdint>

#include "util/byte_buffer.hpp"

namespace vira::comm {

struct Message {
  int source = -1;
  int tag = 0;
  util::ByteBuffer payload;
  /// Bytes that logically follow `payload`, passed by reference: a rank
  /// transport hands the pointer on, so sender and receiver share one
  /// allocation (a peer transfer sends the owner's cached blob this way).
  /// Byte counters and the fault decorator's trajectory hash see payload
  /// then body, the same stream as one payload holding both. Null for most
  /// messages; a socket link refuses a message that has one
  /// (std::invalid_argument) rather than drop its bytes.
  util::SharedBytes body;

  /// Local trace metadata (never serialized on any wire): the sender may
  /// annotate a message with the span context it belongs to, so a link
  /// implementation that defers the actual socket write (the event-loop
  /// frontend's queued sends) can open a child span covering queue + write
  /// time. 0 = untraced.
  std::uint64_t trace_request = 0;
  std::uint64_t trace_span = 0;

  /// Payload plus body bytes.
  std::size_t byte_size() const noexcept {
    return payload.size() + (body ? body->size() : 0);
  }
};

/// Wildcards for receive matching (mirroring MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = INT32_MIN;

}  // namespace vira::comm
