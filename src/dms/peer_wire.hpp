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

#include <cstdint>

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

/// kTagPeerBlock payload: owner → requester. `found == 0` is a signed miss
/// (not cached, stale, or misrouted); the requester then tries the next
/// replica or falls back to disk — it never waits on a silent peer.
struct PeerBlockReply {
  std::uint64_t seq = 0;
  std::uint8_t found = 0;
  std::uint64_t version = 0;
  Blob blob;  ///< blob content; null when found == 0

  /// The header and the blob's bytes go straight into one payload reserved
  /// to its final size: the cached blob is not copied into a reply first.
  void serialize(util::ByteBuffer& out) const {
    const std::uint64_t size = blob ? blob->size() : 0;
    out.reserve(out.size() + 3 * sizeof(std::uint64_t) + sizeof(std::uint8_t) + size);
    out.write<std::uint64_t>(seq);
    out.write<std::uint8_t>(found);
    out.write<std::uint64_t>(version);
    out.write<std::uint64_t>(size);
    if (blob) {
      out.write_raw(blob->data(), size);
    }
  }
  /// Throws std::out_of_range, before allocating, when the size field
  /// exceeds what the payload holds.
  static PeerBlockReply deserialize(util::ByteBuffer& in) {
    PeerBlockReply r;
    r.seq = in.read<std::uint64_t>();
    r.found = in.read<std::uint8_t>();
    r.version = in.read<std::uint64_t>();
    auto bytes = in.read_bytes(in.read<std::uint64_t>());
    if (r.found != 0) {
      r.blob = make_blob(std::move(bytes));
    }
    return r;
  }
};

/// kTagPeerPush payload: loader → replica owner, one-way. After a disk
/// load the loader places a copy on every live owner so a later owner
/// death is covered by a surviving replica instead of a disk respill.
struct PeerPush {
  ItemId id = 0;
  std::uint64_t version = 0;
  Blob blob;

  /// One payload reserved to its final size, as PeerBlockReply.
  void serialize(util::ByteBuffer& out) const {
    const std::uint64_t size = blob ? blob->size() : 0;
    out.reserve(out.size() + 3 * sizeof(std::uint64_t) + size);
    out.write<std::uint64_t>(id);
    out.write<std::uint64_t>(version);
    out.write<std::uint64_t>(size);
    if (blob) {
      out.write_raw(blob->data(), size);
    }
  }
  static PeerPush deserialize(util::ByteBuffer& in) {
    PeerPush p;
    p.id = in.read<std::uint64_t>();
    p.version = in.read<std::uint64_t>();
    p.blob = make_blob(in.read_bytes(in.read<std::uint64_t>()));
    return p;
  }
};

}  // namespace vira::dms
