#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "comm/fault_transport.hpp"
#include "comm/transport.hpp"
#include "dms/block_cache.hpp"
#include "dms/cache_policy.hpp"
#include "dms/data_proxy.hpp"
#include "dms/data_server.hpp"
#include "dms/loading.hpp"
#include "dms/name_service.hpp"
#include "dms/prefetcher.hpp"
#include "dms/shard_map.hpp"
#include "dms/two_tier_cache.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace vd = vira::dms;
namespace vu = vira::util;

namespace {

vd::Blob blob_of_size(std::size_t bytes, char fill = 'x') {
  vu::ByteBuffer buf;
  std::string payload(bytes, fill);
  buf.write_raw(payload.data(), payload.size());
  return vd::make_blob(std::move(buf));
}

vd::DataItemName item(const std::string& source, int step, int block) {
  return vd::block_item(source, step, block);
}

/// In-memory data source: items are 100-byte payloads keyed by canonical
/// name; per-source "files" group 4 items. Optionally injects failures.
class FakeSource final : public vd::DataSource {
 public:
  vu::ByteBuffer load(const vd::DataItemName& name) override {
    ++loads_;
    if (fail_next_ > 0) {
      --fail_next_;
      throw std::runtime_error("injected load failure");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(load_delay_us_));
    vu::ByteBuffer buf;
    buf.write_string(name.canonical());
    std::string pad(100, 'd');
    buf.write_raw(pad.data(), pad.size());
    return buf;
  }

  std::uint64_t item_bytes(const vd::DataItemName& name) const override {
    return 108 + name.canonical().size();
  }
  std::uint64_t file_bytes(const vd::DataItemName&) const override { return 4 * 120; }
  std::string file_key(const vd::DataItemName& name) const override {
    return name.source + "#" + name.params.get_or("step", "0");
  }

  std::vector<std::pair<vd::DataItemName, vu::ByteBuffer>> load_file(
      const vd::DataItemName& name) override {
    ++file_loads_;
    std::vector<std::pair<vd::DataItemName, vu::ByteBuffer>> items;
    const int step = static_cast<int>(name.params.get_int("step", 0));
    for (int b = 0; b < 4; ++b) {
      auto sibling = vd::block_item(name.source, step, b);
      items.emplace_back(sibling, load(sibling));
    }
    return items;
  }

  int loads() const { return loads_; }
  int file_loads() const { return file_loads_; }
  void fail_next(int n) { fail_next_ = n; }
  void set_load_delay_us(int us) { load_delay_us_ = us; }

 private:
  std::atomic<int> loads_{0};
  std::atomic<int> file_loads_{0};
  std::atomic<int> fail_next_{0};
  std::atomic<int> load_delay_us_{0};
};

}  // namespace

// ---------------------------------------------------------------------------
// Name service
// ---------------------------------------------------------------------------

TEST(NameService, InternIsIdempotent) {
  vd::NameService names;
  const auto a = names.intern(item("engine", 0, 3));
  const auto b = names.intern(item("engine", 0, 3));
  const auto c = names.intern(item("engine", 0, 4));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(names.size(), 2u);
}

TEST(NameService, LookupInvertsIntern) {
  vd::NameService names;
  const auto original = item("propfan", 7, 11);
  const auto id = names.intern(original);
  const auto back = names.lookup(id);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, original);
  EXPECT_FALSE(names.lookup(999).has_value());
}

TEST(NameService, FindDoesNotAllocate) {
  vd::NameService names;
  EXPECT_FALSE(names.find(item("x", 0, 0)).has_value());
  EXPECT_EQ(names.size(), 0u);
  names.intern(item("x", 0, 0));
  EXPECT_TRUE(names.find(item("x", 0, 0)).has_value());
}

TEST(NameService, ParameterListDistinguishesItems) {
  // "Simply naming data items with file names would be inadequate."
  vd::NameService names;
  vd::DataItemName lambda2;
  lambda2.source = "engine/step_0000.vmb";
  lambda2.type = "lambda2-field";
  lambda2.params.set_double("threshold", 0.0);
  vd::DataItemName raw;
  raw.source = "engine/step_0000.vmb";
  raw.type = "block";
  EXPECT_NE(names.intern(lambda2), names.intern(raw));
}

TEST(NameResolver, CachesForwardAndBackward) {
  vd::NameService names;
  int calls = 0;
  vd::NameResolver resolver([&](const vd::DataItemName& name) {
    ++calls;
    return names.intern(name);
  });
  const auto id = resolver.resolve(item("engine", 1, 2));
  (void)resolver.resolve(item("engine", 1, 2));
  EXPECT_EQ(calls, 1);
  const auto back = resolver.reverse(id);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->params.get_int("block", -1), 2);
}

// ---------------------------------------------------------------------------
// Replacement policies
// ---------------------------------------------------------------------------

TEST(CachePolicies, LruEvictsLeastRecent) {
  vd::LruPolicy lru;
  for (vd::ItemId id : {1, 2, 3}) {
    lru.on_insert(id);
  }
  lru.on_access(1);  // order now 2, 3, 1
  auto victim = lru.victim([](vd::ItemId) { return true; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
  lru.on_erase(2);
  victim = lru.victim([](vd::ItemId) { return true; });
  EXPECT_EQ(*victim, 3u);
}

TEST(CachePolicies, LruRespectsPinning) {
  vd::LruPolicy lru;
  for (vd::ItemId id : {1, 2, 3}) {
    lru.on_insert(id);
  }
  auto victim = lru.victim([](vd::ItemId id) { return id != 1; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
  victim = lru.victim([](vd::ItemId) { return false; });
  EXPECT_FALSE(victim.has_value());
}

TEST(CachePolicies, LfuEvictsLeastFrequent) {
  vd::LfuPolicy lfu;
  for (vd::ItemId id : {1, 2, 3}) {
    lfu.on_insert(id);
  }
  lfu.on_access(1);
  lfu.on_access(1);
  lfu.on_access(3);
  auto victim = lfu.victim([](vd::ItemId) { return true; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
}

TEST(CachePolicies, LfuBreaksTiesByRecency) {
  vd::LfuPolicy lfu;
  lfu.on_insert(1);
  lfu.on_insert(2);
  // Equal counts; 1 was used less recently.
  auto victim = lfu.victim([](vd::ItemId) { return true; });
  EXPECT_EQ(*victim, 1u);
}

TEST(CachePolicies, FbrNewSectionDoesNotInflateCounts) {
  vd::FbrPolicy fbr(vd::FbrPolicy::Params{0.5, 0.5, 64});
  for (vd::ItemId id : {1, 2, 3, 4}) {
    fbr.on_insert(id);
  }
  // Item 4 is MRU (new section). Accessing it repeatedly must NOT bump its
  // count — that's the locality factoring of FBR.
  const auto before = fbr.count_of(4);
  fbr.on_access(4);
  fbr.on_access(4);
  EXPECT_EQ(fbr.count_of(4), before);
  // Item 1 is at the cold end (old section): re-referencing it does count.
  const auto before1 = fbr.count_of(1);
  fbr.on_access(1);
  EXPECT_EQ(fbr.count_of(1), before1 + 1);
}

TEST(CachePolicies, FbrEvictsColdInfrequentFirst) {
  vd::FbrPolicy fbr(vd::FbrPolicy::Params{0.25, 0.75, 64});
  for (vd::ItemId id : {1, 2, 3, 4}) {
    fbr.on_insert(id);
  }
  // Touch 1 from the old section several times -> high count.
  fbr.on_access(1);
  fbr.on_access(2);
  fbr.on_access(1);
  // Stack (MRU->LRU): 1, 2, 4, 3 roughly; victim should be a cold,
  // low-count entry — not item 1.
  const auto victim = fbr.victim([](vd::ItemId) { return true; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_NE(*victim, 1u);
}

TEST(CachePolicies, FbrAgingHalvesCounts) {
  vd::FbrPolicy fbr(vd::FbrPolicy::Params{0.0, 1.0, 4});
  fbr.on_insert(1);
  fbr.on_insert(2);
  for (int n = 0; n < 10; ++n) {
    fbr.on_access(1);
  }
  // max_count = 4 forces halving; counts stay bounded.
  EXPECT_LE(fbr.count_of(1), 4u);
  EXPECT_GE(fbr.count_of(1), 1u);
}

TEST(CachePolicies, FactoryKnowsAllPolicies) {
  EXPECT_EQ(vd::make_policy("lru")->name(), "LRU");
  EXPECT_EQ(vd::make_policy("lfu")->name(), "LFU");
  EXPECT_EQ(vd::make_policy("fbr")->name(), "FBR");
  EXPECT_THROW(vd::make_policy("marx"), std::invalid_argument);
}

/// Property sweep: on a loopy CFD-like trace, FBR must not be worse than
/// LFU and both frequency policies should beat LRU (the paper's Sec. 4.2
/// claim). The trace alternates a hot working set with sequential sweeps —
/// the pattern repeated parameter studies produce.
class PolicyTraceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyTraceTest, HitRateOnCfdLikeTraceIsSane) {
  auto policy = vd::make_policy(GetParam());
  vd::BlockCache cache(12 * 128, std::move(policy));  // room for 12 items
  std::uint64_t hits = 0;
  std::uint64_t requests = 0;
  auto touch = [&](vd::ItemId id) {
    ++requests;
    if (cache.get(id)) {
      ++hits;
    } else {
      cache.put(id, blob_of_size(128));
    }
  };
  for (int round = 0; round < 30; ++round) {
    for (int rep = 0; rep < 2; ++rep) {
      for (vd::ItemId hot : {0, 1, 2, 3}) {
        touch(hot);  // hot working set: revisited every round
      }
    }
    // Cold sequential sweep as large as the cache: never revisited.
    const auto sweep_base = static_cast<vd::ItemId>(100 + round * 12);
    for (vd::ItemId sweep = sweep_base; sweep < sweep_base + 12; ++sweep) {
      touch(sweep);
    }
  }
  const double hit_rate = static_cast<double>(hits) / static_cast<double>(requests);
  if (GetParam() == "lru") {
    // LRU lets the oversized sweep flush the hot set every round.
    EXPECT_LT(hit_rate, 0.30);
  } else {
    // Frequency-based policies keep the hot set resident (paper Sec. 4.2).
    EXPECT_GT(hit_rate, 0.32);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyTraceTest, ::testing::Values("lru", "lfu", "fbr"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// BlockCache
// ---------------------------------------------------------------------------

TEST(BlockCache, HitAndMiss) {
  vd::BlockCache cache(1024, std::make_unique<vd::LruPolicy>());
  EXPECT_EQ(cache.get(1), nullptr);
  cache.put(1, blob_of_size(100));
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_EQ(cache.size_bytes(), 100u);
  EXPECT_EQ(cache.item_count(), 1u);
}

TEST(BlockCache, EvictsToRespectCapacity) {
  vd::BlockCache cache(250, std::make_unique<vd::LruPolicy>());
  cache.put(1, blob_of_size(100));
  cache.put(2, blob_of_size(100));
  const auto evicted = cache.put(3, blob_of_size(100));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id, 1u);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_LE(cache.size_bytes(), 250u);
}

TEST(BlockCache, PinnedItemsSurviveEviction) {
  vd::BlockCache cache(250, std::make_unique<vd::LruPolicy>());
  cache.put(1, blob_of_size(100));
  cache.pin(1);
  cache.put(2, blob_of_size(100));
  const auto evicted = cache.put(3, blob_of_size(100));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id, 2u);
  EXPECT_TRUE(cache.contains(1));
  cache.unpin(1);
}

TEST(BlockCache, OversizedItemRejected) {
  vd::BlockCache cache(100, std::make_unique<vd::LruPolicy>());
  bool inserted = true;
  cache.put(1, blob_of_size(500), &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_FALSE(cache.contains(1));
}

TEST(BlockCache, AllPinnedRefusesInsert) {
  vd::BlockCache cache(200, std::make_unique<vd::LruPolicy>());
  cache.put(1, blob_of_size(100));
  cache.put(2, blob_of_size(100));
  cache.pin(1);
  cache.pin(2);
  bool inserted = true;
  cache.put(3, blob_of_size(100), &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(BlockCache, PeekDoesNotTouchPolicy) {
  vd::BlockCache cache(250, std::make_unique<vd::LruPolicy>());
  cache.put(1, blob_of_size(100));
  cache.put(2, blob_of_size(100));
  (void)cache.peek(1);  // must NOT refresh 1
  const auto evicted = cache.put(3, blob_of_size(100));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id, 1u);
}

// ---------------------------------------------------------------------------
// TwoTierCache
// ---------------------------------------------------------------------------

namespace {
std::string l2_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() / ("vira_l2_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}
}  // namespace

TEST(TwoTierCache, DemotionAndPromotion) {
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 250;
  config.policy = "lru";
  config.l2_directory = l2_dir("promo");
  config.l2_capacity_bytes = 10000;
  vd::TwoTierCache cache(config, stats);

  cache.put(1, blob_of_size(100));
  cache.put(2, blob_of_size(100));
  cache.put(3, blob_of_size(100));  // evicts 1 -> L2

  EXPECT_FALSE(cache.contains_l1(1));
  EXPECT_TRUE(cache.contains(1));  // still reachable via L2
  EXPECT_EQ(cache.l2_item_count(), 1u);

  // L2 hit: promoted back to L1 — which in turn demotes item 2.
  const auto blob = cache.get(1);
  ASSERT_NE(blob, nullptr);
  EXPECT_TRUE(cache.contains_l1(1));
  EXPECT_EQ(cache.l2_item_count(), 1u);
  EXPECT_FALSE(cache.contains_l1(2));

  const auto counters = stats->snapshot();
  EXPECT_EQ(counters.l2_hits, 1u);
  EXPECT_EQ(counters.evictions_l1, 2u);  // 1 demoted, then another for the promotion
}

TEST(TwoTierCache, DisabledSecondaryTierMisses) {
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 250;
  config.policy = "lru";
  vd::TwoTierCache cache(config, stats);
  cache.put(1, blob_of_size(100));
  cache.put(2, blob_of_size(100));
  cache.put(3, blob_of_size(100));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(stats->snapshot().misses, 1u);
}

TEST(TwoTierCache, L2CapacityEnforced) {
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 150;
  config.policy = "lru";
  config.l2_directory = l2_dir("cap");
  config.l2_capacity_bytes = 250;
  vd::TwoTierCache cache(config, stats);
  for (vd::ItemId id = 0; id < 6; ++id) {
    cache.put(id, blob_of_size(100));
  }
  EXPECT_LE(cache.l2_size_bytes(), 250u);
  EXPECT_GT(stats->snapshot().evictions_l2, 0u);
}

TEST(TwoTierCache, PrefetchUsefulnessTracked) {
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 1000;
  config.policy = "fbr";
  vd::TwoTierCache cache(config, stats);
  cache.put(7, blob_of_size(100), /*from_prefetch=*/true);
  EXPECT_EQ(stats->snapshot().prefetch_useful, 0u);
  (void)cache.get(7);
  EXPECT_EQ(stats->snapshot().prefetch_useful, 1u);
  (void)cache.get(7);  // second hit does not double-count
  EXPECT_EQ(stats->snapshot().prefetch_useful, 1u);
}

TEST(TwoTierCache, EvictedUnrequestedPrefetchIsCountedWastedAndUntracked) {
  // Regression: pending-prefetch bookkeeping leaked — an item prefetched
  // into L1 and then evicted (no L2) before anyone requested it stayed in
  // the pending map forever, growing it without bound on a churning
  // workload. It must be erased on leaving the hierarchy and surfaced as
  // prefetch_wasted.
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 250;  // two items resident at most
  config.policy = "lru";
  vd::TwoTierCache cache(config, stats);

  for (vd::ItemId id = 0; id < 64; ++id) {
    cache.put(id, blob_of_size(100), /*from_prefetch=*/true);
  }
  // Only the still-resident speculative inserts may be pending.
  EXPECT_LE(cache.prefetch_pending_count(), cache.l1().item_count());
  const auto counters = stats->snapshot();
  // 64 prefetched, 2 resident: everything else left unrequested.
  EXPECT_EQ(counters.prefetch_wasted, 62u);
  EXPECT_EQ(counters.prefetch_useful, 0u);

  // A requested survivor is useful, not wasted, and leaves the pending map.
  ASSERT_NE(cache.get(63), nullptr);
  EXPECT_EQ(stats->snapshot().prefetch_useful, 1u);
  EXPECT_EQ(stats->snapshot().prefetch_wasted, 62u);
  EXPECT_LE(cache.prefetch_pending_count(), 1u);
}

TEST(TwoTierCache, PrefetchDemotedToL2StaysPendingUntilGone) {
  // With a secondary tier, demotion keeps the item reachable — the
  // speculation is not yet wasted. Only falling off L2 settles it.
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 250;
  config.policy = "lru";
  config.l2_directory = l2_dir("pfpend");
  config.l2_capacity_bytes = 250;
  vd::TwoTierCache cache(config, stats);

  cache.put(1, blob_of_size(100), /*from_prefetch=*/true);
  cache.put(2, blob_of_size(100), /*from_prefetch=*/true);
  cache.put(3, blob_of_size(100), /*from_prefetch=*/true);  // 1 -> L2
  EXPECT_EQ(stats->snapshot().prefetch_wasted, 0u);
  EXPECT_EQ(cache.prefetch_pending_count(), 3u);

  // Push enough through L1 that L2 overflows and item 1 is truly gone.
  for (vd::ItemId id = 10; id < 16; ++id) {
    cache.put(id, blob_of_size(100));
  }
  EXPECT_GT(stats->snapshot().prefetch_wasted, 0u);
  EXPECT_LE(cache.prefetch_pending_count(),
            cache.l1().item_count() + cache.l2_item_count());
}

TEST(TwoTierCache, ClearDropsBothTiers) {
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 150;
  config.policy = "lru";
  config.l2_directory = l2_dir("clear");
  config.l2_capacity_bytes = 1000;
  vd::TwoTierCache cache(config, stats);
  for (vd::ItemId id = 0; id < 4; ++id) {
    cache.put(id, blob_of_size(100));
  }
  cache.clear();
  EXPECT_EQ(cache.l1().item_count(), 0u);
  EXPECT_EQ(cache.l2_item_count(), 0u);
  EXPECT_EQ(cache.get(0), nullptr);
}

TEST(TwoTierCache, PromotionAtCapacityRecordsRespill) {
  // Regression: at a full L1, promoting an L2 hit re-inserts the blob and
  // immediately demotes another resident straight back to disk. The churn
  // must be visible (l2_respills) and must not corrupt either tier.
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 250;
  config.policy = "lru";
  config.l2_directory = l2_dir("respill");
  config.l2_capacity_bytes = 10000;
  vd::TwoTierCache cache(config, stats);

  cache.put(1, blob_of_size(100));
  cache.put(2, blob_of_size(100));
  cache.put(3, blob_of_size(100));  // L1 full {2,3}; 1 spilled to L2

  // Cycle through one item more than L1 holds: every access is an L2 hit
  // whose promotion respills the current LRU victim.
  for (int round = 0; round < 2; ++round) {
    ASSERT_NE(cache.get(1), nullptr);
    ASSERT_NE(cache.get(2), nullptr);
    ASSERT_NE(cache.get(3), nullptr);
  }

  const auto counters = stats->snapshot();
  EXPECT_EQ(counters.l2_hits, 6u);
  EXPECT_EQ(counters.l2_respills, 6u);  // every promotion churned one out
  EXPECT_EQ(cache.l2_item_count(), 1u);
  // All three items are still reachable somewhere in the hierarchy.
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(TwoTierCache, OversizeDemotionIsDroppedAndCounted) {
  // A blob larger than the whole L2 budget cannot be spilled; it must be
  // dropped from the hierarchy, counted, and never indexed.
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 150;
  config.policy = "lru";
  config.l2_directory = l2_dir("oversize");
  config.l2_capacity_bytes = 50;  // smaller than any test blob
  vd::TwoTierCache cache(config, stats);

  cache.put(1, blob_of_size(100));
  cache.put(2, blob_of_size(100));  // evicts 1; demotion exceeds the L2 budget

  EXPECT_EQ(stats->snapshot().demotions_dropped_oversize, 1u);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.l2_item_count(), 0u);
  EXPECT_EQ(cache.l2_size_bytes(), 0u);
  EXPECT_EQ(cache.get(1), nullptr);  // a later request is a clean miss
}

TEST(TwoTierCache, FailedSpillWriteIsNotIndexed) {
  // If the spill file cannot be written the demotion must be dropped and
  // counted — indexing a missing/truncated file would later surface as a
  // corrupt block instead of a cache miss.
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 150;
  config.policy = "lru";
  config.l2_directory = l2_dir("badio");
  config.l2_capacity_bytes = 10000;
  vd::TwoTierCache cache(config, stats);
  // Pull the directory out from under the cache so the spill write fails.
  std::filesystem::remove_all(config.l2_directory);

  cache.put(1, blob_of_size(100));
  cache.put(2, blob_of_size(100));  // evicts 1; the spill write fails

  EXPECT_EQ(stats->snapshot().demotions_dropped_io, 1u);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.l2_item_count(), 0u);
  EXPECT_EQ(cache.get(1), nullptr);
}

// ---------------------------------------------------------------------------
// Prefetchers
// ---------------------------------------------------------------------------

namespace {
vd::SuccessorFn linear_successor(vd::ItemId limit) {
  return [limit](vd::ItemId id) -> std::optional<vd::ItemId> {
    if (id + 1 >= limit) {
      return std::nullopt;
    }
    return id + 1;
  };
}
}  // namespace

TEST(Prefetchers, OblSuggestsSuccessor) {
  vd::OblPrefetcher obl(linear_successor(100));
  obl.on_request(5, false);
  const auto suggestions = obl.suggest(4);
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_EQ(suggestions[0], 6u);
  // No new request -> no repeated suggestion spam.
  EXPECT_TRUE(obl.suggest(4).empty());
}

TEST(Prefetchers, OblLookaheadDepth) {
  vd::OblPrefetcher obl(linear_successor(100), /*lookahead=*/3);
  obl.on_request(5, true);
  const auto suggestions = obl.suggest(8);
  EXPECT_EQ(suggestions, (std::vector<vd::ItemId>{6, 7, 8}));
}

TEST(Prefetchers, OblStopsAtSequenceEnd) {
  vd::OblPrefetcher obl(linear_successor(7));
  obl.on_request(6, false);
  EXPECT_TRUE(obl.suggest(4).empty());
}

TEST(Prefetchers, PrefetchOnMissOnlyArmsOnMisses) {
  vd::PrefetchOnMissPrefetcher pom(linear_successor(100));
  pom.on_request(3, /*was_hit=*/true);
  EXPECT_TRUE(pom.suggest(4).empty());
  pom.on_request(4, /*was_hit=*/false);
  const auto suggestions = pom.suggest(4);
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_EQ(suggestions[0], 5u);
}

TEST(Prefetchers, MarkovLearnsTransitions) {
  vd::MarkovPrefetcher markov(nullptr);
  // Teach 1 -> 5 -> 9 twice, 1 -> 3 once.
  for (int round = 0; round < 2; ++round) {
    markov.on_request(1, false);
    markov.on_request(5, false);
    markov.on_request(9, false);
  }
  markov.on_request(1, false);
  markov.on_request(3, false);

  EXPECT_EQ(markov.transition_count(1, 5), 2u);
  EXPECT_EQ(markov.transition_count(1, 3), 1u);
  EXPECT_EQ(markov.most_likely_successor(1).value(), 5u);
  EXPECT_EQ(markov.most_likely_successor(5).value(), 9u);
}

TEST(Prefetchers, MarkovFallsBackToOblWhileLearning) {
  vd::MarkovPrefetcher markov(linear_successor(100));
  markov.on_request(10, false);  // nothing learned about 10 yet
  const auto suggestions = markov.suggest(2);
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_EQ(suggestions[0], 11u);  // OBL fallback
}

TEST(Prefetchers, MarkovPredictsAfterLearning) {
  vd::MarkovPrefetcher markov(linear_successor(100));
  // Non-sequential pattern 2 -> 40 that OBL can never guess.
  for (int round = 0; round < 3; ++round) {
    markov.on_request(2, false);
    markov.on_request(40, false);
  }
  markov.on_request(2, false);
  const auto suggestions = markov.suggest(2);
  ASSERT_FALSE(suggestions.empty());
  EXPECT_EQ(suggestions[0], 40u);
}

TEST(Prefetchers, MarkovRanksMultipleSuccessors) {
  vd::MarkovPrefetcher markov(nullptr);
  markov.on_request(1, false);
  markov.on_request(2, false);
  markov.on_request(1, false);
  markov.on_request(2, false);
  markov.on_request(1, false);
  markov.on_request(7, false);
  markov.on_request(1, false);
  const auto suggestions = markov.suggest(5);
  ASSERT_EQ(suggestions.size(), 2u);
  EXPECT_EQ(suggestions[0], 2u);  // seen twice
  EXPECT_EQ(suggestions[1], 7u);  // seen once
}

TEST(Prefetchers, FactoryCoversAllKinds) {
  auto successor = linear_successor(10);
  EXPECT_EQ(vd::make_prefetcher("none", successor)->name(), "none");
  EXPECT_EQ(vd::make_prefetcher("obl", successor)->name(), "obl");
  EXPECT_EQ(vd::make_prefetcher("pom", successor)->name(), "prefetch-on-miss");
  EXPECT_EQ(vd::make_prefetcher("markov", successor)->name(), "markov");
  EXPECT_THROW(vd::make_prefetcher("psychic", successor), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Loading strategies / fitness
// ---------------------------------------------------------------------------

TEST(Loading, DirectDiskAlwaysApplicable) {
  vd::DirectDiskStrategy direct;
  vd::LoadEnvironment env;
  vd::LoadRequestInfo request;
  request.item_bytes = 1 << 20;
  EXPECT_GT(direct.fitness(env, request), 0.0);
}

TEST(Loading, PeerTransferRequiresHolder) {
  vd::PeerTransferStrategy peer;
  vd::LoadEnvironment env;
  vd::LoadRequestInfo request;
  request.item_bytes = 1 << 20;
  request.peer_has_item = false;
  EXPECT_EQ(peer.fitness(env, request), 0.0);
  request.peer_has_item = true;
  EXPECT_GT(peer.fitness(env, request), 0.0);
}

TEST(Loading, PeerBeatsDiskWhenNetworkIsFast) {
  vd::FitnessSelector selector;
  vd::LoadEnvironment env;
  env.peer_bandwidth = 1e9;
  env.disk_bandwidth = 20e6;
  vd::LoadRequestInfo request;
  request.item_bytes = 4 << 20;
  request.peer_has_item = true;
  EXPECT_EQ(selector.choose(env, request), vd::StrategyKind::kPeerTransfer);
}

TEST(Loading, DiskBeatsPeerWhenNetworkIsSlow) {
  vd::FitnessSelector selector;
  vd::LoadEnvironment env;
  env.peer_bandwidth = 1e6;  // ISDN-era cluster interconnect
  env.disk_bandwidth = 100e6;
  vd::LoadRequestInfo request;
  request.item_bytes = 4 << 20;
  request.peer_has_item = true;
  EXPECT_EQ(selector.choose(env, request), vd::StrategyKind::kDirectDisk);
}

TEST(Loading, CollectiveNeedsConcurrencyAndParallelFs) {
  vd::FitnessSelector selector;
  vd::LoadEnvironment env;
  env.parallel_fs = true;
  vd::LoadRequestInfo request;
  request.item_bytes = 1 << 20;
  request.file_bytes = 4 << 20;
  request.concurrent_same_file = 0;
  EXPECT_NE(selector.choose(env, request), vd::StrategyKind::kCollectiveIo);
  // Many concurrent readers of the same file on a parallel FS.
  request.concurrent_same_file = 8;
  EXPECT_EQ(selector.choose(env, request), vd::StrategyKind::kCollectiveIo);
}

TEST(Loading, CollectiveRarelyWinsWithoutParallelFs) {
  // The paper's observation: "coordinating proxies that access a file
  // together is more expensive than the benefit of collective file access"
  // without a parallel file system.
  vd::FitnessSelector selector;
  vd::LoadEnvironment env;
  env.parallel_fs = false;
  vd::LoadRequestInfo request;
  request.item_bytes = 1 << 20;
  request.file_bytes = 16 << 20;
  request.concurrent_same_file = 8;
  EXPECT_NE(selector.choose(env, request), vd::StrategyKind::kCollectiveIo);
}

TEST(Loading, ScoresAreSortedBestFirst) {
  vd::FitnessSelector selector;
  vd::LoadEnvironment env;
  vd::LoadRequestInfo request;
  request.item_bytes = 1 << 20;
  request.peer_has_item = true;
  const auto scored = selector.score(env, request);
  ASSERT_EQ(scored.size(), 3u);
  EXPECT_GE(scored[0].fitness, scored[1].fitness);
  EXPECT_GE(scored[1].fitness, scored[2].fitness);
}

// ---------------------------------------------------------------------------
// DataServer
// ---------------------------------------------------------------------------

TEST(DataServer, RegistryTracksHolders) {
  vd::DataServer server;
  EXPECT_FALSE(server.holder_of(1, 0).has_value());
  server.report_insert(2, 1);
  server.report_insert(3, 1);
  const auto holder = server.holder_of(1, 2);
  ASSERT_TRUE(holder.has_value());
  EXPECT_EQ(*holder, 3);
  server.report_evict(3, 1);
  EXPECT_FALSE(server.holder_of(1, 2).has_value());
  EXPECT_TRUE(server.holder_of(1, 9).has_value());
}

TEST(DataServer, FileReadConcurrencyGauge) {
  vd::DataServer server;
  EXPECT_EQ(server.concurrent_readers("f"), 0);
  server.begin_file_read("f");
  server.begin_file_read("f");
  EXPECT_EQ(server.concurrent_readers("f"), 2);
  server.end_file_read("f");
  EXPECT_EQ(server.concurrent_readers("f"), 1);
  server.end_file_read("f");
  EXPECT_EQ(server.concurrent_readers("f"), 0);
}

TEST(DataServer, ChoosesPeerWhenAvailable) {
  vd::LoadEnvironment env;
  env.peer_bandwidth = 1e9;
  env.disk_bandwidth = 10e6;
  vd::DataServer server(env);
  server.report_insert(5, 42);
  const auto decision = server.choose_strategy(0, 42, 1 << 20, 4 << 20, "f");
  EXPECT_EQ(decision.kind, vd::StrategyKind::kPeerTransfer);
  EXPECT_EQ(decision.peer, 5);
}

TEST(DataServer, ForgottenProxyIsNeverNamedAgain) {
  vd::DataServer server;
  server.report_insert(5, 42);
  server.forget_proxy(5);       // its rank was declared dead
  server.report_insert(5, 43);  // a late insert from the dead proxy
  EXPECT_FALSE(server.holder_of(42, 0).has_value());
  EXPECT_FALSE(server.holder_of(43, 0).has_value());
}

TEST(DataServer, FallsBackWhenHolderIsSelf) {
  vd::LoadEnvironment env;
  env.peer_bandwidth = 1e9;
  env.disk_bandwidth = 10e6;
  vd::DataServer server(env);
  server.report_insert(0, 42);  // only holder is the requester itself
  const auto decision = server.choose_strategy(0, 42, 1 << 20, 4 << 20, "f");
  EXPECT_EQ(decision.kind, vd::StrategyKind::kDirectDisk);
}

TEST(DataServer, BandwidthObservationMovesEnvironment) {
  vd::DataServer server;
  const double before = server.environment().disk_bandwidth;
  for (int n = 0; n < 20; ++n) {
    server.observe_disk_bandwidth(before * 3.0);
  }
  EXPECT_GT(server.environment().disk_bandwidth, before * 2.0);
  server.observe_disk_bandwidth(-5.0);  // ignored
}

// ---------------------------------------------------------------------------
// DataProxy (integration of the DMS pieces)
// ---------------------------------------------------------------------------

namespace {

struct ProxyFixture {
  std::shared_ptr<vd::DataServer> server = std::make_shared<vd::DataServer>();
  std::shared_ptr<FakeSource> source = std::make_shared<FakeSource>();

  /// Peer channel of make_peer's proxies: proxy k on rank k + 1.
  std::shared_ptr<vira::comm::Transport> wire = std::make_shared<vira::comm::InProcTransport>(3);

  std::unique_ptr<vd::DataProxy> make_proxy(int id, std::uint64_t l1 = 1 << 20,
                                            bool async_prefetch = false) {
    vd::DataProxyConfig config;
    config.proxy_id = id;
    config.cache.l1_capacity_bytes = l1;
    config.cache.policy = "fbr";
    config.async_prefetch = async_prefetch;
    return std::make_unique<vd::DataProxy>(config, server, source);
  }

  /// A proxy connected to `wire`, where peer transfer wins every fitness
  /// decision a holder makes possible.
  std::unique_ptr<vd::DataProxy> make_peer(int id) {
    vd::LoadEnvironment env;
    env.peer_bandwidth = 1e12;
    env.disk_bandwidth = 1e6;
    server->set_environment(env);
    auto proxy = make_proxy(id);
    proxy->connect_peers(std::make_shared<vira::comm::Communicator>(wire, id + 1),
                         std::chrono::milliseconds(200));
    return proxy;
  }
};

}  // namespace

TEST(DataProxy, CachesRepeatedRequests) {
  ProxyFixture fx;
  auto proxy = fx.make_proxy(0);
  const auto name = item("engine", 0, 0);
  const auto first = proxy->request(name);
  const auto second = proxy->request(name);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);      // same shared blob
  EXPECT_EQ(fx.source->loads(), 1);  // only one disk read
  const auto counters = proxy->stats().snapshot();
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_EQ(counters.l1_hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
}

TEST(DataProxy, OblPrefetchWarmsNextBlock) {
  ProxyFixture fx;
  auto proxy = fx.make_proxy(0, 1 << 20, /*async_prefetch=*/false);
  // Successor relation: next block of the same step, 4 blocks per step.
  auto& resolver = proxy->resolver();
  proxy->configure_prefetcher("obl", [&resolver](vd::ItemId id) -> std::optional<vd::ItemId> {
    const auto name = resolver.reverse(id);
    if (!name) {
      return std::nullopt;
    }
    const auto block = name->params.get_int("block", 0);
    if (block + 1 >= 4) {
      return std::nullopt;
    }
    auto next = *name;
    next.params.set_int("block", block + 1);
    return resolver.resolve(next);
  });

  (void)proxy->request(item("engine", 0, 0));
  // Synchronous prefetch: block 1 must now be resident.
  const int loads_after_first = fx.source->loads();
  EXPECT_GE(loads_after_first, 2);  // demand + prefetch
  (void)proxy->request(item("engine", 0, 1));
  EXPECT_EQ(fx.source->loads(), loads_after_first + 1);  // its own prefetch of block 2 only
  const auto counters = proxy->stats().snapshot();
  EXPECT_GE(counters.prefetch_useful, 1u);
}

TEST(DataProxy, AsyncPrefetchEventuallyLands) {
  ProxyFixture fx;
  auto proxy = fx.make_proxy(0, 1 << 20, /*async_prefetch=*/true);
  auto& resolver = proxy->resolver();
  proxy->configure_prefetcher("obl", [&resolver](vd::ItemId id) -> std::optional<vd::ItemId> {
    const auto name = resolver.reverse(id);
    if (!name) {
      return std::nullopt;
    }
    auto next = *name;
    next.params.set_int("block", name->params.get_int("block", 0) + 1);
    return resolver.resolve(next);
  });
  (void)proxy->request(item("engine", 0, 0));
  proxy->quiesce();
  EXPECT_GE(fx.source->loads(), 2);
  EXPECT_GE(proxy->stats().snapshot().prefetch_issued, 1u);
}

TEST(DataProxy, PeerTransferServesFromOtherProxy) {
  ProxyFixture fx;
  auto proxy_a = fx.make_peer(0);
  auto proxy_b = fx.make_peer(1);
  const auto name = item("engine", 3, 2);
  (void)proxy_a->request(name);  // disk load, registers holder
  EXPECT_EQ(fx.source->loads(), 1);
  const double disk_bandwidth = fx.server->environment().disk_bandwidth;
  (void)proxy_b->request(name);  // must come from proxy A, not disk
  EXPECT_EQ(fx.source->loads(), 1);
  const auto decisions = fx.server->decision_counts();
  EXPECT_GE(decisions.at("peer-transfer"), 1u);
  // A peer copy is no disk read: the estimate it competes with stays put.
  EXPECT_EQ(fx.server->environment().disk_bandwidth, disk_bandwidth);
  // Without a peer channel the same decision reads the disk, no peer tried.
  auto proxy_c = fx.make_proxy(2);
  ASSERT_NE(proxy_c->request(name), nullptr);
  EXPECT_EQ(fx.source->loads(), 2);
  EXPECT_EQ(proxy_c->stats().snapshot().peer_fallback_disk, 0u);
}

TEST(DataProxy, PeerRaceFallsBackToDisk) {
  ProxyFixture fx;
  auto proxy_a = fx.make_peer(0);
  auto proxy_b = fx.make_peer(1);
  const auto name = item("engine", 1, 1);
  (void)proxy_a->request(name);
  proxy_a->cache().clear();  // emptied between decision and fetch: a signed miss
  const auto blob = proxy_b->request(name);  // decision says peer; fetch fails
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(fx.source->loads(), 2);  // fell back to disk
  EXPECT_EQ(proxy_b->stats().snapshot().peer_fallback_disk, 1u);
}

TEST(DataProxy, KilledRankServesNoPeerTransfer) {
  ProxyFixture fx;
  auto faulty = std::make_shared<vira::comm::FaultInjectingTransport>(
      fx.wire, vira::comm::FaultInjectionConfig{});
  fx.wire = faulty;
  auto proxy_a = fx.make_peer(0);
  auto proxy_b = fx.make_peer(1);
  const auto name = item("engine", 2, 3);
  (void)proxy_a->request(name);  // A holds the block
  faulty->kill_rank(1);          // A's rank
  ASSERT_NE(proxy_b->request(name), nullptr);
  EXPECT_EQ(fx.source->loads(), 2);  // B read the disk
  const auto counters = proxy_b->stats().snapshot();
  EXPECT_EQ(counters.peer_fetch_timeouts, 1u);
  EXPECT_EQ(counters.peer_fetches, 0u);
  // The silent holder is no longer named for this item.
  EXPECT_FALSE(fx.server->holder_of(proxy_b->resolver().resolve(name), 1).has_value());
}

TEST(DataProxy, LoadFailurePropagatesAndRecovers) {
  ProxyFixture fx;
  auto proxy = fx.make_proxy(0);
  fx.source->fail_next(1);
  EXPECT_THROW((void)proxy->request(item("engine", 0, 0)), std::runtime_error);
  // Next attempt succeeds and caches.
  const auto blob = proxy->request(item("engine", 0, 0));
  ASSERT_NE(blob, nullptr);
  EXPECT_NE(proxy->cache().peek(proxy->resolver().resolve(item("engine", 0, 0))), nullptr);
}

TEST(DataProxy, ConcurrentRequestsLoadOnce) {
  ProxyFixture fx;
  fx.source->set_load_delay_us(2000);
  auto proxy = fx.make_proxy(0);
  const auto name = item("engine", 2, 2);
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      if (proxy->request(name) != nullptr) {
        ++successes;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(successes.load(), 8);
  EXPECT_EQ(fx.source->loads(), 1);  // in-flight deduplication
}

TEST(DataProxy, CodePrefetchWarmsCache) {
  ProxyFixture fx;
  auto proxy = fx.make_proxy(0, 1 << 20, /*async_prefetch=*/false);
  proxy->code_prefetch(item("engine", 5, 0));
  // Demand request is now a hit: no extra load.
  const int loads = fx.source->loads();
  (void)proxy->request(item("engine", 5, 0));
  EXPECT_EQ(fx.source->loads(), loads);
  EXPECT_EQ(proxy->stats().snapshot().prefetch_useful, 1u);
}

TEST(DataProxy, ClearCacheForcesColdStart) {
  ProxyFixture fx;
  auto proxy = fx.make_proxy(0);
  (void)proxy->request(item("engine", 0, 0));
  proxy->clear_cache();
  (void)proxy->request(item("engine", 0, 0));
  EXPECT_EQ(fx.source->loads(), 2);
}

// ---------------------------------------------------------------------------
// Markov prefetching through the real proxy (pathline-style access)
// ---------------------------------------------------------------------------

TEST(DataProxy, MarkovLearnsPathlikeRequestsAcrossRuns) {
  ProxyFixture fx;
  auto proxy = fx.make_proxy(0, 1 << 20, /*async_prefetch=*/false);
  // Markov with no OBL fallback: only learned transitions fire.
  proxy->configure_prefetcher("markov", nullptr);

  // A pathline-like non-sequential block tour, repeated twice.
  const int tour[] = {3, 7, 1, 7, 2, 9};
  for (const int block : tour) {
    (void)proxy->request(item("engine", 0, block));
  }
  const auto after_first = proxy->stats().snapshot();

  proxy->clear_cache();  // cold caches, but the transition graph persists
  for (const int block : tour) {
    (void)proxy->request(item("engine", 0, block));
  }
  const auto after_second = proxy->stats().snapshot();

  // Second tour: the prefetcher predicted (almost) every next block.
  const auto useful_second = after_second.prefetch_useful - after_first.prefetch_useful;
  EXPECT_GE(useful_second, 4u);
}

TEST(DataProxy, PrefetcherSwapsAtRuntime) {
  ProxyFixture fx;
  auto proxy = fx.make_proxy(0, 1 << 20, /*async_prefetch=*/false);
  auto successor = [](vd::ItemId id) -> std::optional<vd::ItemId> { return id + 1; };
  proxy->configure_prefetcher("obl", successor);
  (void)proxy->request(item("engine", 0, 0));
  const auto with_obl = proxy->stats().snapshot().prefetch_issued;
  EXPECT_GE(with_obl, 1u);

  proxy->configure_prefetcher("none", nullptr);
  (void)proxy->request(item("engine", 0, 5));
  EXPECT_EQ(proxy->stats().snapshot().prefetch_issued, with_obl);  // no new prefetches
}

// ---------------------------------------------------------------------------
// FBR parameter validation and two-tier failure handling
// ---------------------------------------------------------------------------

TEST(CachePolicies, FbrRejectsBadParameters) {
  EXPECT_THROW(vd::FbrPolicy(vd::FbrPolicy::Params{0.7, 0.7, 64}), std::invalid_argument);
  EXPECT_THROW(vd::FbrPolicy(vd::FbrPolicy::Params{-0.1, 0.5, 64}), std::invalid_argument);
  EXPECT_THROW(vd::FbrPolicy(vd::FbrPolicy::Params{0.25, 0.5, 1}), std::invalid_argument);
}

TEST(TwoTierCache, UnreadableSpillFileDegradesToMiss) {
  auto stats = std::make_shared<vd::DmsStatistics>();
  vd::TwoTierCache::Config config;
  config.l1_capacity_bytes = 250;
  config.policy = "lru";
  config.l2_directory = l2_dir("corrupt");
  config.l2_capacity_bytes = 10000;
  vd::TwoTierCache cache(config, stats);
  cache.put(1, blob_of_size(100));
  cache.put(2, blob_of_size(100));
  cache.put(3, blob_of_size(100));  // demotes 1 to L2
  ASSERT_EQ(cache.l2_item_count(), 1u);

  // Sabotage the spill file.
  std::filesystem::remove(config.l2_directory + "/item_1.blob");

  // Promotion fails gracefully: treated as a miss, no crash.
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_GE(stats->snapshot().misses, 1u);
}

TEST(DmsStatistics, TraceRecordingCapturesRequestOrder) {
  vd::DmsStatistics stats;
  stats.enable_trace(true);
  stats.record_request(5);
  stats.record_request(2);
  stats.record_request(5);
  EXPECT_EQ(stats.trace(), (std::vector<vd::ItemId>{5, 2, 5}));
  stats.reset();
  EXPECT_TRUE(stats.trace().empty());
}

TEST(DmsStatistics, BandwidthObservation) {
  vd::DmsStatistics stats;
  stats.record_load(1000000, 0.5);
  stats.record_load(1000000, 0.5);
  const auto counters = stats.snapshot();
  EXPECT_EQ(counters.bytes_loaded, 2000000u);
  EXPECT_NEAR(counters.load_seconds, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Collective I/O execution path
// ---------------------------------------------------------------------------

TEST(DataProxy, CollectiveLoadWarmsSiblingBlocks) {
  ProxyFixture fx;
  vd::LoadEnvironment env;
  env.parallel_fs = true;   // collective calls only help on a parallel FS
  env.disk_bandwidth = 1e4; // slow link: byte volume dominates the decision
  fx.server->set_environment(env);
  auto proxy = fx.make_proxy(0);

  // Simulate several other proxies currently reading the same step file.
  const auto name = item("engine", 4, 1);
  const auto file_key = fx.source->file_key(name);
  for (int reader = 0; reader < 6; ++reader) {
    fx.server->begin_file_read(file_key);
  }

  const auto blob = proxy->request(name);
  ASSERT_NE(blob, nullptr);
  EXPECT_GE(fx.source->file_loads(), 1);  // whole-file read happened

  // Siblings of the collective read are already resident: no new loads.
  const int loads_before = fx.source->loads();
  for (int b = 0; b < 4; ++b) {
    ASSERT_NE(proxy->request(item("engine", 4, b)), nullptr);
  }
  EXPECT_EQ(fx.source->loads(), loads_before);
  const auto decisions = fx.server->decision_counts();
  EXPECT_GE(decisions.at("collective-io"), 1u);
  for (int reader = 0; reader < 6; ++reader) {
    fx.server->end_file_read(file_key);
  }
}

TEST(DataProxy, CollectiveNotChosenOnPlainFilesystem) {
  ProxyFixture fx;  // default env: parallel_fs = false
  auto proxy = fx.make_proxy(0);
  const auto name = item("engine", 2, 0);
  const auto file_key = fx.source->file_key(name);
  for (int reader = 0; reader < 6; ++reader) {
    fx.server->begin_file_read(file_key);
  }
  ASSERT_NE(proxy->request(name), nullptr);
  EXPECT_EQ(fx.source->file_loads(), 0);  // "of limited use in Viracocha"
  for (int reader = 0; reader < 6; ++reader) {
    fx.server->end_file_read(file_key);
  }
}

// ---------------------------------------------------------------------------
// Replacement-policy property tests (DESIGN.md "Testing strategy")
//
// Each production policy is replayed against a deliberately naive reference
// model (flat vectors, O(n) scans) over a seeded random op stream; any
// divergence in victim choice or bookkeeping is a bug in one of the two.
// The stream derives from the printed master seed, so a failure reproduces
// with VIRA_TEST_SEED=<printed>.
// ---------------------------------------------------------------------------

namespace {

struct RefLru {
  std::vector<vd::ItemId> order;  // front = LRU, back = MRU

  void insert(vd::ItemId id) { access_or_append(id); }
  void access(vd::ItemId id) {
    auto it = std::find(order.begin(), order.end(), id);
    if (it != order.end()) {
      order.erase(it);
      order.push_back(id);
    }
  }
  void erase(vd::ItemId id) {
    auto it = std::find(order.begin(), order.end(), id);
    if (it != order.end()) {
      order.erase(it);
    }
  }
  std::optional<vd::ItemId> victim(const vd::EvictableFn& evictable) const {
    for (const auto id : order) {
      if (evictable(id)) {
        return id;
      }
    }
    return std::nullopt;
  }
  std::size_t tracked() const { return order.size(); }

 private:
  void access_or_append(vd::ItemId id) {
    auto it = std::find(order.begin(), order.end(), id);
    if (it != order.end()) {
      order.erase(it);
    }
    order.push_back(id);
  }
};

struct RefLfu {
  struct Entry {
    std::uint64_t count = 0;
    std::uint64_t last = 0;
  };
  std::map<vd::ItemId, Entry> entries;
  std::uint64_t clock = 0;

  void insert(vd::ItemId id) {
    auto& e = entries[id];
    e.count += 1;
    e.last = ++clock;
  }
  void access(vd::ItemId id) {
    auto it = entries.find(id);
    if (it != entries.end()) {
      it->second.count += 1;
      it->second.last = ++clock;
    }
  }
  void erase(vd::ItemId id) { entries.erase(id); }
  std::optional<vd::ItemId> victim(const vd::EvictableFn& evictable) const {
    std::optional<vd::ItemId> best;
    std::uint64_t best_count = 0;
    std::uint64_t best_last = 0;
    for (const auto& [id, e] : entries) {
      if (!evictable(id)) {
        continue;
      }
      if (!best || e.count < best_count || (e.count == best_count && e.last < best_last)) {
        best = id;
        best_count = e.count;
        best_last = e.last;
      }
    }
    return best;
  }
  std::size_t tracked() const { return entries.size(); }
};

/// Reference FBR with the paper's semantics spelled out over flat vectors:
/// new-section membership by index, counts bumped only outside it, Amax
/// halving, victims least-frequent-then-least-recent from the old section,
/// falling back to the coldest evictable entry.
struct RefFbr {
  struct Entry {
    std::uint64_t count = 1;
    std::uint64_t last = 0;
  };
  double new_fraction = 0.25;
  double old_fraction = 0.5;
  std::uint64_t max_count = 64;
  std::vector<vd::ItemId> stack;  // front (index 0) = MRU
  std::map<vd::ItemId, Entry> entries;
  std::uint64_t clock = 0;

  std::size_t index_of(vd::ItemId id) const {
    return static_cast<std::size_t>(
        std::find(stack.begin(), stack.end(), id) - stack.begin());
  }
  bool in_new_section(vd::ItemId id) const {
    const auto new_count = static_cast<std::size_t>(
        std::ceil(new_fraction * static_cast<double>(stack.size())));
    return index_of(id) < new_count;
  }
  std::size_t old_section_start() const {
    const auto old_count = static_cast<std::size_t>(
        std::ceil(old_fraction * static_cast<double>(stack.size())));
    return stack.size() - std::min(old_count, stack.size());
  }
  void maybe_age() {
    bool needs = false;
    for (const auto& [id, e] : entries) {
      needs = needs || e.count >= max_count;
    }
    if (needs) {
      for (auto& [id, e] : entries) {
        e.count = std::max<std::uint64_t>(1, e.count / 2);
      }
    }
  }
  void touch(vd::ItemId id) {
    stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(index_of(id)));
    stack.insert(stack.begin(), id);
    entries[id].last = ++clock;
  }
  void insert(vd::ItemId id) {
    if (entries.count(id) > 0) {
      access(id);
      return;
    }
    stack.insert(stack.begin(), id);
    entries[id] = Entry{1, ++clock};
  }
  void access(vd::ItemId id) {
    if (entries.count(id) == 0) {
      return;
    }
    if (!in_new_section(id)) {
      entries[id].count += 1;
      maybe_age();
    }
    touch(id);
  }
  void erase(vd::ItemId id) {
    if (entries.count(id) > 0) {
      stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(index_of(id)));
      entries.erase(id);
    }
  }
  std::optional<vd::ItemId> victim(const vd::EvictableFn& evictable) const {
    const std::size_t start = old_section_start();
    std::optional<vd::ItemId> best;
    std::uint64_t best_count = 0;
    std::uint64_t best_last = 0;
    for (std::size_t i = start; i < stack.size(); ++i) {
      const auto id = stack[i];
      if (!evictable(id)) {
        continue;
      }
      const auto& e = entries.at(id);
      if (!best || e.count < best_count || (e.count == best_count && e.last < best_last)) {
        best = id;
        best_count = e.count;
        best_last = e.last;
      }
    }
    if (best) {
      return best;
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (evictable(*it)) {
        return *it;
      }
    }
    return std::nullopt;
  }
  std::size_t tracked() const { return entries.size(); }
};

/// Drives a production policy and a reference model through the same seeded
/// op stream, comparing victim choices under randomly pinned subsets.
template <typename Model>
void run_policy_property_test(vd::ReplacementPolicy& policy, Model& model,
                              std::uint64_t seed) {
  vu::Rng rng(seed);
  constexpr int kOps = 2500;
  constexpr std::uint64_t kUniverse = 12;
  std::set<vd::ItemId> resident;
  for (int op = 0; op < kOps; ++op) {
    const auto id = rng.next_below(kUniverse);
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
        policy.on_insert(id);
        model.insert(id);
        resident.insert(id);
        break;
      case 4:
      case 5:
      case 6:
        policy.on_access(id);
        model.access(id);
        break;
      case 7:
        policy.on_erase(id);
        model.erase(id);
        resident.erase(id);
        break;
      default: {
        // Victim comparison under a random pinned subset.
        std::set<vd::ItemId> pinned;
        for (const auto r : resident) {
          if (rng.next_below(4) == 0) {
            pinned.insert(r);
          }
        }
        const vd::EvictableFn evictable = [&](vd::ItemId candidate) {
          return pinned.count(candidate) == 0;
        };
        const auto got = policy.victim(evictable);
        const auto want = model.victim(evictable);
        ASSERT_EQ(got, want) << policy.name() << " diverged at op " << op
                             << " (seed " << seed << ")";
        if (got) {
          EXPECT_EQ(resident.count(*got), 1u);
          EXPECT_EQ(pinned.count(*got), 0u);
        }
        break;
      }
    }
    ASSERT_EQ(policy.tracked(), model.tracked())
        << policy.name() << " bookkeeping diverged at op " << op << " (seed " << seed << ")";
  }
}

}  // namespace

TEST(CachePolicyProperties, LruMatchesReferenceModel) {
  vd::LruPolicy policy;
  RefLru model;
  run_policy_property_test(policy, model, vira::test::test_seed(0xa11ce));
}

TEST(CachePolicyProperties, LfuMatchesReferenceModel) {
  vd::LfuPolicy policy;
  RefLfu model;
  run_policy_property_test(policy, model, vira::test::test_seed(0xbeef));
}

TEST(CachePolicyProperties, FbrMatchesReferenceModel) {
  vd::FbrPolicy policy;
  RefFbr model;
  run_policy_property_test(policy, model, vira::test::test_seed(0xfb12));
}

// ---------------------------------------------------------------------------
// Markov prefetcher: OBL fallback edge cases
// ---------------------------------------------------------------------------

TEST(Prefetchers, MarkovFallbackIsPerBlockNotGlobal) {
  // The fallback applies per block: a trained graph for some blocks must
  // not stop OBL from covering blocks the graph knows nothing about.
  const vd::SuccessorFn successor = [](vd::ItemId id) -> std::optional<vd::ItemId> {
    return id + 1;
  };
  vd::MarkovPrefetcher markov(successor);
  markov.on_request(5, false);
  markov.on_request(9, false);
  markov.on_request(5, false);
  markov.on_request(9, false);
  EXPECT_EQ(markov.transition_count(5, 9), 2u);

  // A block it has never left: still falls back to OBL...
  markov.on_request(42, false);
  auto suggestions = markov.suggest(1);
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_EQ(suggestions.front(), 43u);

  // ...while the trained block keeps its learned (non-sequential) edge.
  markov.on_request(5, false);
  suggestions = markov.suggest(2);
  ASSERT_FALSE(suggestions.empty());
  EXPECT_EQ(suggestions.front(), 9u);
}

TEST(Prefetchers, MarkovWithoutFallbackStaysQuietWhenIgnorant) {
  vd::MarkovPrefetcher markov(nullptr);
  markov.on_request(7, false);
  EXPECT_TRUE(markov.suggest(4).empty());  // nothing learned, no fallback
  markov.on_request(3, false);
  markov.on_request(7, false);
  markov.on_request(3, false);
  EXPECT_EQ(markov.suggest(4), (std::vector<vd::ItemId>{7}));
}

// ---------------------------------------------------------------------------
// ShardMap property tests (DESIGN.md §12)
//
// Brute-force reference style: the map's claims are re-checked directly over
// seeded random universes of ids instead of trusting the ring arithmetic.
// Seeds derive from the printed master seed (VIRA_TEST_SEED reproduces).
// ---------------------------------------------------------------------------

TEST(ShardMapProperties, EveryIdHasExactlyRDistinctLiveOwners) {
  vu::Rng rng(vira::test::test_seed(0x54a9d));
  for (int round = 0; round < 20; ++round) {
    vd::ShardMap::Config config;
    config.members = 1 + static_cast<int>(rng.next_below(8));
    config.replication = 1 + static_cast<int>(rng.next_below(4));
    config.seed = rng.next_u64();
    vd::ShardMap map(config);
    const auto expected = static_cast<std::size_t>(std::min(config.replication, config.members));
    for (int i = 0; i < 200; ++i) {
      const vd::ItemId id = rng.next_u64();
      const auto owners = map.owners(id);
      ASSERT_EQ(owners.size(), expected) << "members=" << config.members
                                         << " repl=" << config.replication;
      const std::set<int> distinct(owners.begin(), owners.end());
      ASSERT_EQ(distinct.size(), owners.size()) << "owner list repeats a member";
      for (const int owner : owners) {
        ASSERT_GE(owner, 0);
        ASSERT_LT(owner, config.members);
      }
      ASSERT_EQ(map.primary(id), owners.front());
      for (int member = 0; member < config.members; ++member) {
        ASSERT_EQ(map.is_owner(id, member), distinct.count(member) == 1);
      }
    }
  }
}

TEST(ShardMapProperties, IdenticalConfigsRouteIdenticallyWithoutCoordination) {
  vu::Rng rng(vira::test::test_seed(0x54a9e));
  for (int round = 0; round < 10; ++round) {
    vd::ShardMap::Config config;
    config.members = 2 + static_cast<int>(rng.next_below(7));
    config.replication = 1 + static_cast<int>(rng.next_below(3));
    config.seed = rng.next_u64();
    vd::ShardMap a(config);
    vd::ShardMap b(config);
    vd::ShardMap::Config other = config;
    other.seed = config.seed + 1;
    vd::ShardMap c(other);
    bool seed_matters = false;
    for (int i = 0; i < 200; ++i) {
      const vd::ItemId id = rng.next_u64();
      ASSERT_EQ(a.owners(id), b.owners(id)) << "same config diverged";
      if (a.owners(id) != c.owners(id)) {
        seed_matters = true;
      }
    }
    EXPECT_TRUE(seed_matters) << "a different seed never moved any of 200 ids";
  }
}

TEST(ShardMapProperties, DeathOnlyMovesKeysTheDeadOwnerServed) {
  vu::Rng rng(vira::test::test_seed(0xdead5));
  for (int round = 0; round < 10; ++round) {
    vd::ShardMap::Config config;
    config.members = 2 + static_cast<int>(rng.next_below(7));
    config.replication = 1 + static_cast<int>(rng.next_below(3));
    config.seed = rng.next_u64();
    vd::ShardMap map(config);

    constexpr int kIds = 500;
    std::vector<vd::ItemId> ids;
    std::vector<std::vector<int>> before;
    ids.reserve(kIds);
    before.reserve(kIds);
    for (int i = 0; i < kIds; ++i) {
      ids.push_back(rng.next_u64());
      before.push_back(map.owners(ids.back()));
    }

    const int dead = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(config.members)));
    map.mark_dead(dead);
    EXPECT_TRUE(map.is_dead(dead));

    int moved = 0;
    for (int i = 0; i < kIds; ++i) {
      const auto after = map.owners(ids[i]);
      const bool held = std::find(before[i].begin(), before[i].end(), dead) != before[i].end();
      if (!held) {
        // Ids the dead member never owned must be completely untouched.
        ASSERT_EQ(after, before[i]) << "unrelated id moved on death";
        continue;
      }
      ++moved;
      // The ring walk merely skips the dead member's points: the surviving
      // owners keep their order, and at most one new replica is appended.
      std::vector<int> survivors = before[i];
      survivors.erase(std::remove(survivors.begin(), survivors.end(), dead), survivors.end());
      ASSERT_GE(after.size(), survivors.size());
      ASSERT_TRUE(std::equal(survivors.begin(), survivors.end(), after.begin()))
          << "surviving owners reshuffled on death";
      ASSERT_EQ(std::find(after.begin(), after.end(), dead) == after.end(), true);
      const auto live = static_cast<std::size_t>(std::min(config.replication, config.members - 1));
      ASSERT_EQ(after.size(), live);
    }
    // Movement is the expected ≈ min(R, N)/N fraction of the keyspace, not
    // a rehash-everything event. Bounds are loose (64 vnodes ⇒ the shares
    // wobble) but rule out both extremes.
    const double expected =
        static_cast<double>(std::min(config.replication, config.members)) / config.members;
    const double fraction = static_cast<double>(moved) / kIds;
    EXPECT_LE(fraction, std::min(1.0, 3.0 * expected))
        << "death moved far more keys than the dead member owned";
    EXPECT_GE(fraction, expected / 4.0) << "death moved implausibly few keys";
  }
}

// Regression: interned ids are small sequential integers, and member 0's
// vnode inputs are also 0..vnodes-1. Before the ring/item hash domains were
// separated, the target of ItemId v was bit-for-bit equal to member 0's
// v-th ring point, so member 0 was primary for every id below `vnodes` —
// i.e. for the whole working set of any real run.
TEST(ShardMapProperties, SmallSequentialIdsSpreadAcrossMembers) {
  vd::ShardMap::Config config;
  config.members = 4;
  config.replication = 2;
  vd::ShardMap map(config);
  std::vector<int> primaries(static_cast<std::size_t>(config.members), 0);
  const int ids = 256;
  for (int id = 0; id < ids; ++id) {
    primaries[static_cast<std::size_t>(map.primary(static_cast<vd::ItemId>(id)))]++;
  }
  for (int member = 0; member < config.members; ++member) {
    EXPECT_GT(primaries[static_cast<std::size_t>(member)], 0)
        << "member " << member << " is primary for none of " << ids << " sequential ids";
    EXPECT_LT(primaries[static_cast<std::size_t>(member)], ids / 2)
        << "member " << member << " is primary for over half of " << ids
        << " sequential ids — item targets are colliding with its ring points";
  }
}

TEST(ShardMapProperties, AllDeadMeansNoOwners) {
  vd::ShardMap::Config config;
  config.members = 3;
  config.replication = 2;
  vd::ShardMap map(config);
  for (int member = 0; member < config.members; ++member) {
    map.mark_dead(member);
  }
  EXPECT_TRUE(map.owners(42).empty());
  EXPECT_EQ(map.primary(42), -1);
  map.mark_alive(1);
  EXPECT_EQ(map.owners(42), std::vector<int>{1});
}

// ---------------------------------------------------------------------------
// Sharded DMS peer wire (kTagPeerFetch / kTagPeerBlock / kTagPeerPush)
// ---------------------------------------------------------------------------

namespace {

/// `workers` proxies over one in-process wire, ownership consistently hashed
/// across the first `members` of them with replication `repl` — the same
/// wiring core::Backend does, minus scheduler and workers.
struct ShardedFixture : ProxyFixture {
  vd::ShardMap routes;  ///< reference copy for the tests' own ownership queries
  std::vector<std::unique_ptr<vd::DataProxy>> proxies;

  ShardedFixture(int workers, int members, int repl,
                 const vira::comm::FaultInjectionConfig* faults = nullptr)
      : routes(shard_config(members, repl)) {
    wire = std::make_shared<vira::comm::InProcTransport>(workers + 1);
    if (faults) {
      wire = std::make_shared<vira::comm::FaultInjectingTransport>(wire, *faults);
    }
    for (int index = 0; index < workers; ++index) {
      auto proxy = make_proxy(index);
      proxy->configure_sharding(std::make_shared<vd::ShardMap>(shard_config(members, repl)),
                                std::make_shared<vira::comm::Communicator>(wire, index + 1),
                                std::chrono::milliseconds(50));
      proxies.push_back(std::move(proxy));
    }
  }

  static vd::ShardMap::Config shard_config(int members, int repl) {
    vd::ShardMap::Config config;
    config.members = members;
    config.replication = repl;
    return config;
  }

  /// First block item whose primary owner is `owner`, skipping `skip` hits
  /// (for tests that need several distinct items on the same shard).
  vd::DataItemName item_owned_by(int owner, int skip = 0) {
    for (int block = 0; block < 256; ++block) {
      const auto name = item("shard", 0, block);
      if (routes.primary(proxies[0]->resolver().resolve(name)) == owner) {
        if (skip-- == 0) {
          return name;
        }
      }
    }
    throw std::logic_error("no block hashed onto the requested owner");
  }
};

bool same_bytes(const vd::Blob& a, const vd::Blob& b) {
  return a && b && a->size() == b->size() && std::memcmp(a->data(), b->data(), a->size()) == 0;
}

}  // namespace

TEST(ShardedDms, PeerFetchRoundTripServesFromOwner) {
  ShardedFixture fx(2, 2, 1);
  const auto name = fx.item_owned_by(0);
  const auto original = fx.proxies[0]->request(name);  // owner: disk load
  EXPECT_EQ(fx.source->loads(), 1);
  const auto fetched = fx.proxies[1]->request(name);  // non-owner: over the wire
  EXPECT_EQ(fx.source->loads(), 1) << "a warm owner must absorb the miss";
  EXPECT_TRUE(same_bytes(original, fetched));
  const auto counters = fx.proxies[1]->stats().snapshot();
  EXPECT_EQ(counters.peer_fetches, 1u);
  EXPECT_EQ(counters.peer_fallback_disk, 0u);
  EXPECT_EQ(counters.peer_fetch_timeouts, 0u);
}

TEST(ShardedDms, FetchRacingEvictionFallsBackToDiskAndReseedsOwner) {
  ShardedFixture fx(2, 2, 1);
  const auto name = fx.item_owned_by(0);
  const vd::ItemId id = fx.proxies[1]->resolver().resolve(name);
  // The owner is alive but cold — the steady-state shape of a fetch racing
  // an eviction. The answer must be a *signed* miss followed by a disk
  // fallback, never a hang on a silent peer.
  const auto blob = fx.proxies[1]->request(name);
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(fx.source->loads(), 1);
  const auto counters = fx.proxies[1]->stats().snapshot();
  EXPECT_EQ(counters.peer_fetch_misses, 1u);
  EXPECT_EQ(counters.peer_fallback_disk, 1u);
  EXPECT_EQ(counters.peer_fetch_timeouts, 0u);
  EXPECT_GE(counters.peer_pushes, 1u);
  // The fallback pushed a replica back to the owner (async, via its peer
  // service thread) — the next fetch for this block finds it warm.
  EXPECT_TRUE(vira::test::eventually(
      [&] { return fx.proxies[0]->cache().peek(id) != nullptr; }));
}

TEST(ShardedDms, DuplicatedPeerRepliesAreDedupedBySeq) {
  vira::comm::FaultInjectionConfig faults;
  faults.seed = 99;
  faults.duplicate_rate = 1.0;  // every wire message arrives twice
  ShardedFixture fx(2, 2, 1, &faults);
  const auto first = fx.item_owned_by(0, 0);
  const auto second = fx.item_owned_by(0, 1);
  const auto original_first = fx.proxies[0]->request(first);
  const auto original_second = fx.proxies[0]->request(second);
  EXPECT_EQ(fx.source->loads(), 2);

  // Each fetch is answered at least twice (duplicated request ⇒ the owner
  // serves it twice ⇒ duplicated replies); the stale extras carry an old
  // seq and must be discarded, not mistaken for the next fetch's answer.
  const auto fetched_first = fx.proxies[1]->request(first);
  const auto fetched_second = fx.proxies[1]->request(second);
  EXPECT_TRUE(same_bytes(original_first, fetched_first));
  EXPECT_TRUE(same_bytes(original_second, fetched_second));
  EXPECT_EQ(fx.source->loads(), 2) << "duplicates must not force disk fallbacks";
  const auto counters = fx.proxies[1]->stats().snapshot();
  EXPECT_EQ(counters.peer_fetches, 2u);
  EXPECT_EQ(counters.peer_fallback_disk, 0u);
}

TEST(ShardedDms, VersionBumpInvalidatesEveryReplica) {
  // Regression for bump routing: NameService::bump_data_version() must
  // invalidate on *all* replicas — after the PR-6 result-cache invalidation
  // fires, a stale replica may not serve a pre-bump block to anyone.
  ShardedFixture fx(3, 2, 2);  // proxies 0 and 1 own everything; 2 only requests
  fx.server->names().on_bump([&fx](std::uint64_t version) {
    for (auto& proxy : fx.proxies) {
      proxy->on_data_version(version);
    }
  });
  const auto name = fx.item_owned_by(0);
  const vd::ItemId id = fx.proxies[2]->resolver().resolve(name);

  // Cold start: both owners sign misses, the requester pays the disk once
  // and seeds both replicas.
  const auto original = fx.proxies[2]->request(name);
  ASSERT_NE(original, nullptr);
  EXPECT_EQ(fx.source->loads(), 1);
  ASSERT_TRUE(vira::test::eventually([&] {
    return fx.proxies[0]->cache().peek(id) != nullptr &&
           fx.proxies[1]->cache().peek(id) != nullptr;
  }));

  fx.server->names().bump_data_version();

  // The repeat may not touch any pre-bump copy: the requester's own cache
  // hit is evicted as stale, both replicas refuse on the wire, and the
  // bytes come fresh from the source.
  const auto reloaded = fx.proxies[2]->request(name);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(fx.source->loads(), 2);
  const auto rejects = fx.proxies[0]->stats().snapshot().stale_replica_rejects +
                       fx.proxies[1]->stats().snapshot().stale_replica_rejects;
  EXPECT_GE(rejects, 1u) << "no replica ever refused its stale copy";
  EXPECT_EQ(fx.proxies[2]->data_version(), 2u);
}
