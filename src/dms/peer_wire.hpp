#pragma once

/// \file peer_wire.hpp
/// Payload layouts for the proxy↔proxy peer-transfer path (tags in
/// comm/tags.hpp, narrative in docs/PROTOCOL.md "Peer transfer").
///
/// Fetches are sequence-numbered per requesting proxy. The requester keeps
/// at most one fetch outstanding and matches replies by `seq`, so a reply
/// that arrives after its fetch timed out — or a transport duplicate of a
/// reply already consumed — is recognized and discarded instead of being
/// mistaken for the answer to a later fetch; the same (identity, dedup)
/// idea the exactly-once fragment machinery uses.
///
/// A reply or push writes only its header into the payload; the blob
/// travels as the message body (comm::Message::body), by reference. The
/// requester caches the very allocation the owner holds, so a transfer
/// copies no block bytes on either side, and the header's size field must
/// match the body it arrives with.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "dms/data_item.hpp"
#include "util/byte_buffer.hpp"

namespace vira::dms {

/// kTagPeerFetch payload: requester → owner.
struct PeerFetchRequest {
  ItemId id = 0;
  std::uint64_t seq = 0;
  /// The requester's current dataset version: the owner must not answer
  /// from a replica stamped older than this (bump invalidation, Sec. 4.1
  /// name-service versioning + the PR-6 result-cache invalidation feed).
  std::uint64_t min_version = 0;
  /// Rank to reply to (the requester's transport rank).
  std::int32_t reply_rank = 0;

  void serialize(util::ByteBuffer& out) const {
    out.write<std::uint64_t>(id);
    out.write<std::uint64_t>(seq);
    out.write<std::uint64_t>(min_version);
    out.write<std::int32_t>(reply_rank);
  }
  static PeerFetchRequest deserialize(util::ByteBuffer& in) {
    PeerFetchRequest r;
    r.id = in.read<std::uint64_t>();
    r.seq = in.read<std::uint64_t>();
    r.min_version = in.read<std::uint64_t>();
    r.reply_rank = in.read<std::int32_t>();
    return r;
  }
};

/// Throws std::out_of_range unless `body` holds exactly the header's `size`
/// bytes (none when null), and is present when `required`.
inline void check_peer_body(std::uint64_t size, const Blob& body, bool required) {
  if ((required && !body) || size != (body ? body->size() : 0)) {
    throw std::out_of_range("peer wire: size field " + std::to_string(size) +
                            " disagrees with a body of " +
                            (body ? std::to_string(body->size()) + " bytes" : "none"));
  }
}

/// kTagPeerBlock: owner → requester. `found == 0` is a signed miss (not
/// cached, stale, or misrouted); the requester then tries the next replica
/// or falls back to disk — it never waits on a silent peer.
struct PeerBlockReply {
  std::uint64_t seq = 0;
  std::uint8_t found = 0;
  std::uint64_t version = 0;
  Blob blob;  ///< the message body; null when found == 0

  /// Writes the header `seq, found, version, size`; send `blob` as the body.
  void serialize(util::ByteBuffer& out) const {
    out.write<std::uint64_t>(seq);
    out.write<std::uint8_t>(found);
    out.write<std::uint64_t>(version);
    out.write<std::uint64_t>(blob ? blob->size() : 0);
  }
  /// Takes the header from `in` and the blob from `body`. Throws
  /// std::out_of_range when the size field disagrees with the body, or when
  /// `found` is set without one.
  static PeerBlockReply deserialize(util::ByteBuffer& in, Blob body) {
    PeerBlockReply r;
    r.seq = in.read<std::uint64_t>();
    r.found = in.read<std::uint8_t>();
    r.version = in.read<std::uint64_t>();
    check_peer_body(in.read<std::uint64_t>(), body, r.found != 0);
    if (r.found != 0) {
      r.blob = std::move(body);
    }
    return r;
  }
};

/// kTagPeerPush: loader → replica owner, one-way. After a disk load the
/// loader places its blob on every live owner so a later owner death is
/// covered by a surviving replica instead of a disk respill.
struct PeerPush {
  ItemId id = 0;
  std::uint64_t version = 0;
  Blob blob;  ///< the message body

  /// Writes the header `id, version, size`; send `blob` as the body.
  void serialize(util::ByteBuffer& out) const {
    out.write<std::uint64_t>(id);
    out.write<std::uint64_t>(version);
    out.write<std::uint64_t>(blob ? blob->size() : 0);
  }
  /// Throws std::out_of_range, as PeerBlockReply, when the size field
  /// disagrees with the body or the body is missing.
  static PeerPush deserialize(util::ByteBuffer& in, Blob body) {
    PeerPush p;
    p.id = in.read<std::uint64_t>();
    p.version = in.read<std::uint64_t>();
    check_peer_body(in.read<std::uint64_t>(), body, /*required=*/true);
    p.blob = std::move(body);
    return p;
  }
};

}  // namespace vira::dms
