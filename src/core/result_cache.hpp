#pragma once

/// \file result_cache.hpp
/// Content-addressed memoization of finished fragment streams (DESIGN.md
/// "Result memoization").
///
/// Many users ask for the same extraction — one isosurface value on one
/// time step. The scheduler keys every first-attempt request by command,
/// canonicalized params and dataset version; a fully successful stream is
/// recorded fragment by fragment and stored here, and a later identical
/// request replays it without forming a work group.
///
/// Storage is a dms::TwoTierCache (memory tier only), so the LRU/LFU/FBR
/// replacement policies of the data path apply unchanged. The string key
/// is FNV-1a-64-hashed into the cache's ItemId space, and the full key is
/// stored inside the entry and verified on lookup: a hash collision reads
/// as a miss, never as somebody else's result.
///
/// Scheduler-thread-only: the class adds no locking of its own.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dms/two_tier_cache.hpp"
#include "util/byte_buffer.hpp"
#include "util/param_list.hpp"

namespace vira::core {

struct ResultCacheConfig {
  /// Off by default: memoization pays off for repeated queries over a
  /// static dataset, which is a deployment decision.
  bool enabled = false;
  /// Byte budget of the stored (serialized) entries.
  std::uint64_t memory_bytes = 128ull << 20;
  /// Replacement policy name (dms::make_policy: "lru", "lfu", "fbr").
  std::string policy = "lru";
  /// Streams whose fragment payloads sum past this are never admitted; the
  /// scheduler stops capturing as soon as a stream crosses it.
  std::uint64_t max_entry_bytes = 16ull << 20;
};

/// One memoized fragment stream plus the CommandStats fields a replay
/// reports.
struct CachedResult {
  struct Fragment {
    bool final = false;  ///< kTagFinal (true) or kTagPartial (false)
    util::ByteBuffer payload;
  };

  std::string key;
  std::uint64_t data_version = 0;
  int workers = 0;
  int requested_workers = 0;
  std::uint64_t partial_packets = 0;
  std::uint64_t result_bytes = 0;
  /// Runtime of the recorded computation: the final attempt, from its
  /// dispatch to its last done report (earlier failed attempts excluded).
  double compute_seconds = 0.0;
  std::vector<Fragment> fragments;

  /// Sum of the fragment payload sizes.
  std::uint64_t payload_bytes() const;

  void serialize(util::ByteBuffer& out) const;
  /// Throws (std::runtime_error, std::out_of_range) on corrupt input.
  static CachedResult deserialize(util::ByteBuffer& in);
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheConfig config);

  /// `command \n canonical(params) \n data_version`. Params canonicalize by
  /// sorted key, so construction order never splits the cache.
  static std::string make_key(const std::string& command, const util::ParamList& params,
                              std::uint64_t data_version);
  /// FNV-1a-64 of the key: the storage ItemId.
  static dms::ItemId key_hash(const std::string& key);

  /// The entry stored under `key`, or nullopt on a miss, a hash collision,
  /// or an entry that fails to deserialize. A hit refreshes recency.
  std::optional<CachedResult> lookup(const std::string& key);

  /// Stores the entry under entry.key, replacing whatever its slot held.
  /// Returns false if the entry is over max_entry_bytes or larger than the
  /// whole byte budget.
  bool insert(const CachedResult& entry);

  /// Drops every entry (dataset version bump).
  void invalidate_all();

  std::size_t entry_count() const;
  std::uint64_t stored_bytes() const;

 private:
  ResultCacheConfig config_;
  dms::TwoTierCache cache_;
};

}  // namespace vira::core
