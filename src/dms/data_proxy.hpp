#pragma once

/// \file data_proxy.hpp
/// Per-node data proxy (paper Sec. 4.1).
///
/// "Every computing node owns a data proxy that is responsible for the
/// retrieval of data asked for by a command. Proxies act like a black box
/// with the possibility to change system parameters from outside but not
/// the result of a data request."
///
/// request() is the whole story from a command's point of view: cache hit
/// or — after asking the data server which loading strategy to use — a
/// load from disk, a peer proxy, or a collective file read. Around that
/// core the proxy runs the system prefetcher on a background thread
/// (suggestions from Sec. 4.2) and accepts user-initiated code prefetches.
/// In-flight loads are deduplicated so a demand request never re-reads a
/// block the prefetch thread is already fetching.
///
/// With configure_sharding() the proxy additionally joins the sharded DMS
/// (DESIGN.md §12): misses route by a consistent-hash ShardMap straight to
/// the owning proxies over kTagPeerFetch/kTagPeerBlock messages — no
/// central strategy round-trip — and a peer-service thread answers the
/// sibling proxies' fetches from this proxy's cache. Disk loads replicate
/// to every live owner (kTagPeerPush) so a killed rank's blocks re-serve
/// from a surviving replica instead of respilling from disk.

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "comm/communicator.hpp"
#include "dms/data_source.hpp"
#include "dms/name_service.hpp"
#include "dms/server_api.hpp"
#include "dms/prefetcher.hpp"
#include "dms/shard_map.hpp"
#include "dms/statistics.hpp"
#include "dms/two_tier_cache.hpp"
#include "util/blocking_queue.hpp"
#include "util/clock.hpp"
#include "util/task_pool.hpp"

namespace vira::dms {

struct DataProxyConfig {
  int proxy_id = 0;
  TwoTierCache::Config cache;
  std::size_t prefetch_depth = 2;   ///< max suggestions executed per request
  bool async_prefetch = true;       ///< run prefetches on a background thread
};

/// Fetches an item from another proxy's cache; null when unavailable.
/// Wired by the runtime ("proxies are able to communicate and exchange
/// data across work group boundaries").
using PeerFetchFn = std::function<Blob(int peer, ItemId id)>;

class DataProxy {
 public:
  DataProxy(DataProxyConfig config, std::shared_ptr<ServerApi> server,
            std::shared_ptr<DataSource> source,
            std::shared_ptr<DmsStatistics> stats = nullptr);
  ~DataProxy();
  DataProxy(const DataProxy&) = delete;
  DataProxy& operator=(const DataProxy&) = delete;

  /// The one entry point commands use. Blocking; never returns null
  /// (throws on unloadable items).
  Blob request(const DataItemName& name);

  /// Asynchronous request for the pipelined executor: a cache hit settles
  /// immediately (and still feeds the prefetcher, exactly like request());
  /// a miss is submitted to `pool` and the returned future delivers the
  /// blob when the load lands. In-flight dedup, strategy selection and
  /// cache insertion are the same code path as request(), so accounting
  /// stays honest. Outstanding bytes are tracked in DmsStatistics
  /// (async_inflight_bytes / async_peak_bytes) from submission until the
  /// task settles — including cancellation of a still-queued load, which
  /// releases its accounting through the task's captured settle token.
  util::Future<Blob> request_async(const DataItemName& name, util::TaskPool& pool);

  /// User-initiated code prefetch (paper: "the worker command itself is
  /// responsible to determine a suitable code location and a useful time
  /// to invoke code prefetches"). Non-blocking when async.
  void code_prefetch(const DataItemName& name);

  /// Installs the prefetcher `kind` (make_prefetcher) with the successor
  /// relation the sequential prefetchers need; until then the proxy does
  /// not prefetch.
  void configure_prefetcher(const std::string& kind, SuccessorFn successor);

  void set_peer_fetch(PeerFetchFn fn);

  /// Joins the sharded DMS (DESIGN.md §12). Must be called before the
  /// proxy serves requests. Spawns the "dms.peer.<id>" service thread that
  /// answers sibling fetches/pushes on `comm` (rank = proxy_id + 1 on both
  /// ends), and switches execute_load() to the shard-routed path: no
  /// central strategy RPC, owners resolve via `map`, misses on non-owned
  /// items peer-fetch from the owner replicas with `fetch_timeout` per
  /// attempt before declaring an owner dead and promoting the next replica.
  void configure_sharding(std::shared_ptr<ShardMap> map,
                          std::shared_ptr<comm::Communicator> comm,
                          std::chrono::milliseconds fetch_timeout = std::chrono::milliseconds(50));

  /// Dataset-version feed (NameService::on_bump). Raises the proxy's
  /// version floor; cached entries stamped below it are lazily evicted on
  /// their next touch, and the peer service refuses to serve them — a
  /// stale replica cannot resurrect pre-bump bytes after the PR-6 result
  /// cache invalidated downstream results.
  void on_data_version(std::uint64_t version);

  bool sharded() const { return shard_map_ != nullptr; }
  std::uint64_t data_version() const { return data_version_.load(std::memory_order_acquire); }

  /// Blocks until queued prefetches finished (tests, phase boundaries).
  void quiesce();

  /// Drops cached content (cold-start switch for the benches).
  void clear_cache();

  int id() const { return config_.proxy_id; }
  TwoTierCache& cache() { return *cache_; }
  DmsStatistics& stats() { return *stats_; }
  NameResolver& resolver() { return resolver_; }
  ServerApi& server() { return *server_; }

 private:
  Blob load_item(ItemId id, const DataItemName& name, bool from_prefetch);
  Blob execute_load(ItemId id, const DataItemName& name, bool from_prefetch);
  Blob execute_load_sharded(ItemId id, const DataItemName& name, bool from_prefetch);
  Blob fetch_from_peer(int owner, ItemId id, std::uint64_t min_version, bool& timed_out,
                       std::uint64_t& version_out);
  void push_to_owners(ItemId id, const Blob& blob, const std::vector<int>& owners,
                      std::uint64_t version);
  void peer_service_loop();
  void serve_peer_fetch(const comm::Message& msg);
  void apply_peer_push(comm::Message& msg);
  /// Current-version stamp bookkeeping for the sharded path.
  void stamp_version(ItemId id, std::uint64_t version);
  std::uint64_t item_version(ItemId id) const;
  /// True when the cached entry may be served/returned (always in legacy
  /// mode; stamp >= version floor in sharded mode).
  bool fresh(ItemId id) const;
  /// Stale cache hit: drop the entry everywhere and tell the server.
  void evict_stale(ItemId id);
  void raise_data_version(std::uint64_t version);
  void run_prefetch_suggestions();
  /// Queues (async) or runs one prefetch, counting it as issued.
  void issue_prefetch(ItemId id);
  /// One queued prefetch finished; wakes quiesce() at zero.
  void prefetch_settled();
  void prefetch_worker();
  void prefetch_one(ItemId id);

  DataProxyConfig config_;
  std::shared_ptr<ServerApi> server_;
  std::shared_ptr<DataSource> source_;
  std::shared_ptr<DmsStatistics> stats_;
  std::unique_ptr<TwoTierCache> cache_;
  NameResolver resolver_;
  PeerFetchFn peer_fetch_;

  std::mutex prefetcher_mutex_;
  std::unique_ptr<Prefetcher> prefetcher_;

  /// In-flight load deduplication. A request for an item that is loading
  /// waits on loading_cv_, which the load notifies when it lands; the wait
  /// goes through the Clock seam, so virtual-time runs stay deterministic
  /// (DESIGN.md "Testing strategy").
  std::mutex loading_mutex_;
  util::ClockCondition loading_cv_;
  std::unordered_set<ItemId> loading_;

  /// Background prefetch machinery.
  util::BlockingQueue<ItemId> prefetch_queue_;
  std::thread prefetch_thread_;
  std::mutex idle_mutex_;
  util::ClockCondition idle_cv_;  ///< prefetch_inflight_ reached 0
  int prefetch_inflight_ = 0;

  /// Sharded-DMS state (null/empty in legacy mode; see configure_sharding).
  std::shared_ptr<ShardMap> shard_map_;
  std::shared_ptr<comm::Communicator> peer_comm_;
  std::chrono::milliseconds peer_fetch_timeout_{50};
  std::thread peer_thread_;
  std::atomic<bool> peer_stop_{false};
  /// Fetch sequence numbers: one outstanding fetch per proxy (the thread
  /// that set peer_fetch_busy_), replies matched by seq so late or
  /// duplicated kTagPeerBlock messages from earlier fetches are discarded,
  /// never mistaken for the current answer.
  std::mutex peer_fetch_mutex_;
  util::ClockCondition peer_fetch_cv_;
  bool peer_fetch_busy_ = false;
  std::atomic<std::uint64_t> peer_seq_{0};
  /// Version floor (mirrors NameService::data_version) and per-item stamps
  /// assigned at insert time. A stamp below the floor marks the entry
  /// stale: evicted on the next local touch, refused on the peer wire.
  std::atomic<std::uint64_t> data_version_{1};
  mutable std::mutex version_mutex_;
  std::unordered_map<ItemId, std::uint64_t> item_version_;
};

}  // namespace vira::dms
