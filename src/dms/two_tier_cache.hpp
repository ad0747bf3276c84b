#pragma once

/// \file two_tier_cache.hpp
/// The DMS "two-tiered data cache with a primary cache in main memory and
/// an optional secondary cache on local hard drives" (paper Sec. 4.2).
///
/// L1 evictions demote blobs to spill files in a per-proxy directory; L2
/// hits promote them back to L1. The secondary tier has its own byte
/// budget with LRU file eviction (frequency bookkeeping would be wasted on
/// the slow tier).

#include <cstdint>
#include <filesystem>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "dms/block_cache.hpp"
#include "dms/statistics.hpp"

namespace vira::dms {

class TwoTierCache {
 public:
  struct Config {
    std::uint64_t l1_capacity_bytes;
    std::string policy = "fbr";        ///< L1 replacement policy
    std::string l2_directory;          ///< empty = secondary tier disabled
    std::uint64_t l2_capacity_bytes = 0;
  };

  TwoTierCache(Config config, std::shared_ptr<DmsStatistics> stats);
  ~TwoTierCache();

  /// Looks the item up in L1 then (if enabled) L2; L2 hits are promoted.
  /// Records hit/miss statistics. nullptr = full miss, caller must load.
  Blob get(ItemId id);

  /// Inserts into L1; demotes L1 evictions into L2.
  /// `from_prefetch` marks speculative inserts for usefulness accounting.
  void put(ItemId id, Blob blob, bool from_prefetch = false);

  bool contains(ItemId id) const;
  /// True if resident in L1 (cheap check used by the prefetcher to skip
  /// suggestions that are already cached).
  bool contains_l1(ItemId id) const;

  void pin(ItemId id) { l1_.pin(id); }
  void unpin(ItemId id) { l1_.unpin(id); }

  /// Peek L1 without state changes (peer transfer source).
  Blob peek(ItemId id) const { return l1_.peek(id); }

  /// Peek both tiers without state changes: L1, else a read of the L2
  /// spill file with no promotion (the blob stays on disk, the LRU order
  /// is untouched). The sharded peer-service thread answers fetches with
  /// this so serving a sibling never perturbs the local replacement state
  /// or the hit/miss accounting.
  Blob peek_deep(ItemId id) const;

  /// Drops the item from both tiers (no demotion, no hit/miss accounting).
  /// Used by version invalidation: a bump makes the cached bytes stale, so
  /// the entry must leave the hierarchy before the reload.
  void erase(ItemId id);

  /// Drops everything (both tiers) — the benches' cold-start switch.
  void clear();

  const BlockCache& l1() const { return l1_; }
  std::uint64_t l2_size_bytes() const;
  std::size_t l2_item_count() const;

  /// Prefetched-but-never-requested items currently tracked. Bounded by
  /// cache residency: an item leaving both tiers is erased (and counted
  /// as prefetch_wasted), so the map cannot outgrow the cache itself.
  std::size_t prefetch_pending_count() const;

  /// A request was served with `id` outside get(): it missed, then joined
  /// the in-flight load that inserted the item. A prefetched item counts
  /// as useful, exactly as on a hit.
  void note_requested(ItemId id);

 private:
  std::string l2_path(ItemId id) const;
  void put_internal(ItemId id, Blob blob, bool from_prefetch, bool respill);
  /// The item left the cache hierarchy entirely (evicted with no L2,
  /// dropped demotion, L2 eviction, unreadable spill file). If it was a
  /// still-unrequested prefetch, the speculation is now provably wasted:
  /// count it and erase the pending entry — leaving it would leak one map
  /// slot per evicted prefetch for the life of the server.
  void note_gone(ItemId id);
  /// `respill` marks demotions caused by an L2 promote's re-insert (tier
  /// churn accounting). Returns true when the blob is indexed in L2
  /// afterwards (false = dropped: oversize or spill-write failure).
  bool demote(ItemId id, const Blob& blob, bool respill = false);
  Blob promote(ItemId id);
  void evict_l2_to_fit(std::uint64_t incoming);

  Config config_;
  std::shared_ptr<DmsStatistics> stats_;
  BlockCache l1_;

  mutable std::mutex l2_mutex_;
  /// LRU order of spilled items, front = oldest.
  std::list<ItemId> l2_order_;
  std::unordered_map<ItemId, std::pair<std::list<ItemId>::iterator, std::uint64_t>> l2_index_;
  std::uint64_t l2_used_ = 0;
  bool warned_oversize_ = false;  ///< guarded by l2_mutex_

  /// Items inserted by prefetch and not yet requested (usefulness metric).
  mutable std::mutex prefetch_mutex_;
  std::unordered_map<ItemId, bool> prefetched_pending_;
};

}  // namespace vira::dms
