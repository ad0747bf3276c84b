#pragma once

/// \file data_proxy.hpp
/// Per-node data proxy (paper Sec. 4.1).
///
/// "Every computing node owns a data proxy that is responsible for the
/// retrieval of data asked for by a command. Proxies act like a black box
/// with the possibility to change system parameters from outside but not
/// the result of a data request."
///
/// request() is the whole story from a command's point of view: a cache hit
/// or the one load path, execute_load(). A miss asks the data server's
/// fitness function for a loading strategy (paper Sec. 4.3) or, sharded
/// (configure_sharding, DESIGN.md §12), its ShardMap for the owner
/// replicas; it tries those peers in order over the rank transport, then a
/// collective or direct disk read. A peer-service thread answers the
/// siblings' fetches from this proxy's cache, so no proxy reads another's
/// cache directly and a killed rank serves nothing. Around that core the
/// proxy runs the system prefetcher on a background thread (suggestions
/// from Sec. 4.2) and accepts user-initiated code prefetches. In-flight
/// loads are deduplicated so a demand request never re-reads a block the
/// prefetch thread is already fetching.

#include <atomic>
#include <chrono>
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

  /// Connects the proxy to its siblings over `comm` (rank = proxy_id + 1
  /// on both ends); call before the proxy serves requests. Spawns the
  /// "dms.peer.<id>" thread that answers sibling fetches (and, sharded,
  /// pushes). A peer transfer waits `fetch_timeout` for the peer's answer
  /// before trying the next source, and the data server stops naming a
  /// silent holder for that item; without this channel it reads the disk.
  void connect_peers(std::shared_ptr<comm::Communicator> comm,
                     std::chrono::milliseconds fetch_timeout);

  /// Joins the sharded DMS (DESIGN.md §12) and calls connect_peers(comm,
  /// fetch_timeout). Misses route by `map` instead of the central strategy
  /// RPC: a non-owner tries the owner replicas in order, and a timed-out
  /// owner is marked dead in `map` so the next replica is promoted.
  void configure_sharding(std::shared_ptr<ShardMap> map,
                          std::shared_ptr<comm::Communicator> comm,
                          std::chrono::milliseconds fetch_timeout = std::chrono::milliseconds(50));

  /// Dataset-version feed (NameService::on_bump). Raises the proxy's
  /// version floor; cached entries stamped below it are lazily evicted on
  /// their next touch, and the peer service refuses to serve them — a
  /// stale replica cannot resurrect pre-bump bytes after the PR-6 result
  /// cache invalidated downstream results.
  void on_data_version(std::uint64_t version);

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
  Blob fetch_from_peer(int peer, ItemId id, std::uint64_t min_version, bool& timed_out,
                       std::uint64_t& version_out);
  void push_to_owners(ItemId id, const Blob& blob, const std::vector<int>& owners,
                      std::uint64_t version);
  void peer_service_loop();
  void serve_peer_fetch(const comm::Message& msg);
  void apply_peer_push(comm::Message& msg);
  /// Current-version stamp bookkeeping for the sharded path.
  void stamp_version(ItemId id, std::uint64_t version);
  std::uint64_t item_version(ItemId id) const;
  /// True when the cached entry may be served/returned (always when not
  /// sharded; stamp >= version floor when sharded).
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

  /// Peer channel (null until connect_peers) and shard map (null unless
  /// configure_sharding).
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
