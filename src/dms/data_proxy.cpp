#include "dms/data_proxy.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include "comm/tags.hpp"
#include "dms/peer_wire.hpp"
#include "obs/tracer.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace vira::dms {

namespace {
/// How often the peer-service thread re-checks its stop flag. Messages end
/// its wait at once; this only bounds how long teardown waits for it.
constexpr auto kPeerServiceStopCheck = std::chrono::milliseconds(20);

/// Runs `read` inside the server's per-file reader count (the collective-I/O
/// fitness input), closing the count on a throw too.
template <typename Read>
auto counted_read(ServerApi& server, const std::string& file_key, Read read) {
  server.begin_file_read(file_key);
  try {
    auto result = read();
    server.end_file_read(file_key);
    return result;
  } catch (...) {
    server.end_file_read(file_key);
    throw;
  }
}
}  // namespace

DataProxy::DataProxy(DataProxyConfig config, std::shared_ptr<ServerApi> server,
                     std::shared_ptr<DataSource> source, std::shared_ptr<DmsStatistics> stats)
    : config_(std::move(config)),
      server_(std::move(server)),
      source_(std::move(source)),
      stats_(stats ? std::move(stats) : std::make_shared<DmsStatistics>()),
      resolver_([this](const DataItemName& name) { return server_->intern(name); }) {
  if (!server_ || !source_) {
    throw std::invalid_argument("DataProxy: server and source required");
  }
  cache_ = std::make_unique<TwoTierCache>(config_.cache, stats_);
  // Sequential prefetchers need a successor relation; until
  // configure_prefetcher() installs one, stay with NullPrefetcher.
  prefetcher_ = std::make_unique<NullPrefetcher>();
  if (config_.async_prefetch) {
    prefetch_thread_ = util::spawn_thread("dms.prefetch." + std::to_string(config_.proxy_id),
                                          [this] { prefetch_worker(); });
  }
}

DataProxy::~DataProxy() {
  peer_stop_.store(true, std::memory_order_release);
  if (peer_thread_.joinable()) {
    util::global_clock().join_thread(peer_thread_);
  }
  prefetch_queue_.close();
  if (prefetch_thread_.joinable()) {
    util::global_clock().join_thread(prefetch_thread_);
  }
}

void DataProxy::connect_peers(std::shared_ptr<comm::Communicator> comm,
                              std::chrono::milliseconds fetch_timeout) {
  if (!comm) {
    throw std::invalid_argument("DataProxy::connect_peers: comm required");
  }
  if (peer_comm_) {
    throw std::logic_error("DataProxy::connect_peers: already connected");
  }
  peer_comm_ = std::move(comm);
  peer_fetch_timeout_ = fetch_timeout;
  peer_thread_ = util::spawn_thread("dms.peer." + std::to_string(config_.proxy_id),
                                   [this] { peer_service_loop(); });
}

void DataProxy::configure_sharding(std::shared_ptr<ShardMap> map,
                                   std::shared_ptr<comm::Communicator> comm,
                                   std::chrono::milliseconds fetch_timeout) {
  if (!map || !comm) {
    throw std::invalid_argument("DataProxy::configure_sharding: map and comm required");
  }
  if (shard_map_ || peer_comm_) {
    throw std::logic_error("DataProxy::configure_sharding: already configured");
  }
  // Before the peer-service thread starts: it reads the map.
  shard_map_ = std::move(map);
  connect_peers(std::move(comm), fetch_timeout);
}

void DataProxy::on_data_version(std::uint64_t version) { raise_data_version(version); }

void DataProxy::raise_data_version(std::uint64_t version) {
  std::uint64_t current = data_version_.load(std::memory_order_acquire);
  while (version > current &&
         !data_version_.compare_exchange_weak(current, version, std::memory_order_acq_rel)) {
  }
}

void DataProxy::stamp_version(ItemId id, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(version_mutex_);
  item_version_[id] = version;
}

std::uint64_t DataProxy::item_version(ItemId id) const {
  std::lock_guard<std::mutex> lock(version_mutex_);
  auto it = item_version_.find(id);
  return it == item_version_.end() ? 0 : it->second;
}

bool DataProxy::fresh(ItemId id) const {
  if (!shard_map_) {
    return true;  // not sharded: versioning is the result cache's concern
  }
  return item_version(id) >= data_version_.load(std::memory_order_acquire);
}

void DataProxy::evict_stale(ItemId id) {
  cache_->erase(id);
  server_->report_evict(config_.proxy_id, id);
}

void DataProxy::configure_prefetcher(const std::string& kind, SuccessorFn successor) {
  std::lock_guard<std::mutex> lock(prefetcher_mutex_);
  prefetcher_ = make_prefetcher(kind, std::move(successor));
}

Blob DataProxy::request(const DataItemName& name) {
  const ItemId id = resolver_.resolve(name);

  // Fast path: cached (L1 or promoted from L2). A hit stamped below the
  // version floor is a pre-bump replica: drop it and reload.
  if (Blob blob = cache_->get(id)) {
    if (fresh(id)) {
      {
        std::lock_guard<std::mutex> lock(prefetcher_mutex_);
        prefetcher_->on_request(id, /*was_hit=*/true);
      }
      run_prefetch_suggestions();
      return blob;
    }
    evict_stale(id);
  }

  // Miss: load (deduplicated against concurrent loads of the same item).
  Blob blob = load_item(id, name, /*from_prefetch=*/false);
  {
    std::lock_guard<std::mutex> lock(prefetcher_mutex_);
    prefetcher_->on_request(id, /*was_hit=*/false);
  }
  run_prefetch_suggestions();
  return blob;
}

namespace {

/// Balances one record_async_submit with exactly one record_async_settle,
/// whichever way the task ends: completion, a thrown load error, or
/// cancellation before running (the pool drops the callable — and with it
/// this token — at cancel time).
class AsyncLoadToken {
 public:
  AsyncLoadToken(std::shared_ptr<DmsStatistics> stats, std::uint64_t bytes)
      : stats_(std::move(stats)), bytes_(bytes) {
    stats_->record_async_submit(bytes_);
  }
  ~AsyncLoadToken() { settle(); }
  AsyncLoadToken(const AsyncLoadToken&) = delete;
  AsyncLoadToken& operator=(const AsyncLoadToken&) = delete;

  void settle() {
    if (!settled_.exchange(true, std::memory_order_acq_rel)) {
      stats_->record_async_settle(bytes_);
    }
  }

 private:
  std::shared_ptr<DmsStatistics> stats_;
  std::uint64_t bytes_;
  std::atomic<bool> settled_{false};
};

}  // namespace

util::Future<Blob> DataProxy::request_async(const DataItemName& name, util::TaskPool& pool) {
  const ItemId id = resolver_.resolve(name);

  // Fast path: cached. Settle immediately; the prefetcher still sees the
  // request so its model and suggestions match the synchronous path.
  if (Blob blob = cache_->get(id)) {
    if (fresh(id)) {
      {
        std::lock_guard<std::mutex> lock(prefetcher_mutex_);
        prefetcher_->on_request(id, /*was_hit=*/true);
      }
      run_prefetch_suggestions();
      return util::Future<Blob>::ready_value(std::move(blob));
    }
    evict_stale(id);
  }

  // Miss: hand the load to the pool. The expected size is known up front,
  // so outstanding bytes are accounted from submission — the pipeline's
  // bounded window therefore bounds this gauge, which DST asserts.
  const std::uint64_t expected_bytes = source_->item_bytes(name);
  auto token = std::make_shared<AsyncLoadToken>(stats_, expected_bytes);
  return pool.submit([this, id, name, token]() -> Blob {
    Blob blob = load_item(id, name, /*from_prefetch=*/false);
    {
      std::lock_guard<std::mutex> lock(prefetcher_mutex_);
      prefetcher_->on_request(id, /*was_hit=*/false);
    }
    run_prefetch_suggestions();
    token->settle();
    return blob;
  });
}

Blob DataProxy::load_item(ItemId id, const DataItemName& name, bool from_prefetch) {
  // If someone else is loading this item, wait for them and use the cache.
  // The wait ends when their load lands, so a demand request that finds a
  // prefetch in flight pays only the rest of that load.
  {
    std::unique_lock<std::mutex> lock(loading_mutex_);
    if (loading_.count(id) > 0) {
      util::WallTimer waited;
      loading_cv_.wait(lock, [&] { return loading_.count(id) == 0; });
      if (!from_prefetch) {
        stats_->record_inflight_wait(waited.seconds());
      }
    }
    if (Blob blob = cache_->peek(id)) {
      if (fresh(id)) {
        if (!from_prefetch) {
          cache_->note_requested(id);  // a demand served by someone else's load
        }
        return blob;
      }
      evict_stale(id);
    }
    loading_.insert(id);
  }

  const auto loaded = [&] {
    {
      std::lock_guard<std::mutex> lock(loading_mutex_);
      loading_.erase(id);
    }
    loading_cv_.notify_all();
  };
  Blob blob;
  try {
    blob = execute_load(id, name, from_prefetch);
  } catch (...) {
    loaded();
    throw;
  }
  loaded();
  return blob;
}

Blob DataProxy::execute_load(ItemId id, const DataItemName& name, bool from_prefetch) {
  // Demand loads run on the worker thread and inherit the worker.execute /
  // phase context; async prefetches run on the prefetch thread with no
  // context and trace as request-0 roots (exempted by trace validators).
  const auto& trace_ctx = obs::current_context();
  auto span = obs::Tracer::instance().start(from_prefetch ? "dms.prefetch" : "dms.load",
                                            trace_ctx.request_id, config_.proxy_id + 1,
                                            trace_ctx.span_id);
  if (span.active()) {
    span.arg("item", static_cast<std::int64_t>(id));
  }

  // Sources, in order: peers, then a collective or direct disk read. A
  // sharded non-owner tries the owner replicas, with no central round-trip.
  // Otherwise the central server's fitness function picks the strategy
  // (paper Sec. 4.3) and names the holder a peer transfer fetches from.
  const std::string file_key = source_->file_key(name);
  const std::vector<int> owners = shard_map_ ? shard_map_->owners(id) : std::vector<int>{};
  std::vector<int> peers;
  bool collective = false;
  if (shard_map_) {
    if (std::find(owners.begin(), owners.end(), config_.proxy_id) == owners.end()) {
      peers = owners;
    }
  } else {
    const auto decision = server_->choose_strategy(config_.proxy_id, id, source_->item_bytes(name),
                                                   source_->file_bytes(name), file_key);
    if (decision.kind == StrategyKind::kPeerTransfer && peer_comm_) {
      peers.push_back(decision.peer);
    }
    collective = decision.kind == StrategyKind::kCollectiveIo;
  }
  // Version floors are the sharded DMS's: unsharded entries carry no stamp.
  const std::uint64_t min_version = shard_map_ ? data_version_.load(std::memory_order_acquire) : 0;

  util::WallTimer timer;
  Blob blob;
  std::uint64_t blob_version = min_version;
  // A dead or silent peer earlier in the list means whoever answers is a
  // promoted replica, not the primary — the `dms.replica_promotions`
  // instrument the failover acceptance check keys on.
  bool earlier_peer_failed = false;
  for (const int peer : peers) {
    if (shard_map_ && shard_map_->is_dead(peer)) {
      earlier_peer_failed = true;
      continue;
    }
    bool timed_out = false;
    std::uint64_t version = 0;
    blob = fetch_from_peer(peer, id, min_version, timed_out, version);
    if (blob) {
      blob_version = std::max(blob_version, version);
      stats_->record_peer_fetch();
      if (earlier_peer_failed) {
        stats_->record_replica_promotion();
      }
      break;
    }
    if (timed_out) {
      stats_->record_peer_fetch_timeout();
      if (shard_map_) {
        shard_map_->mark_dead(peer);
      } else {
        // Until the scheduler declares the holder's rank dead, at least
        // stop the fitness function naming it for this item.
        server_->report_evict(peer, id);
      }
      earlier_peer_failed = true;
      continue;
    }
    // Signed miss: the peer is alive but does not hold the block (cold,
    // evicted, or stale-rejected). Replicas evict independently, so try
    // the rest of the list before paying for the disk.
    stats_->record_peer_fetch_miss();
  }

  const bool from_disk = !blob;
  if (!blob && collective) {
    for (auto& [item_name, buffer] :
         counted_read(*server_, file_key, [&] { return source_->load_file(name); })) {
      const ItemId sibling = resolver_.resolve(item_name);
      Blob sibling_blob = make_blob(std::move(buffer));
      if (sibling == id) {
        blob = sibling_blob;
      }
      cache_->put(sibling, sibling_blob, /*from_prefetch=*/sibling != id);
      server_->report_insert(config_.proxy_id, sibling);
    }
  }
  if (!blob) {  // direct disk, also when the collective read lacked the item
    blob = make_blob(counted_read(*server_, file_key, [&] { return source_->load(name); }));
  }
  if (from_disk && !peers.empty()) {
    stats_->record_peer_fallback_disk();
  }

  const double seconds = timer.seconds();
  stats_->record_load(blob->size(), seconds);
  if (span.active()) {
    span.arg("bytes", static_cast<std::int64_t>(blob->size()));
    span.arg("disk", from_disk ? 1 : 0);
  }
  // Only disk reads feed the bandwidth the fitness function weighs peer
  // transfer against.
  if (from_disk && seconds > 0.0) {
    server_->observe_disk_bandwidth(static_cast<double>(blob->size()) / seconds);
  }

  cache_->put(id, blob, from_prefetch);
  if (shard_map_) {
    stamp_version(id, blob_version);
  }
  server_->report_insert(config_.proxy_id, id);
  if (shard_map_ && from_disk) {
    // Replica placement: a disk load seeds every live owner, so a later
    // owner death is covered by a surviving copy instead of a respill.
    push_to_owners(id, blob, owners, blob_version);
  }
  return blob;
}

Blob DataProxy::fetch_from_peer(int peer, ItemId id, std::uint64_t min_version,
                                bool& timed_out, std::uint64_t& version_out) {
  timed_out = false;
  version_out = 0;
  // One outstanding fetch per proxy: replies are matched by seq, and a
  // second fetching thread would take (and drop) the first one's reply.
  // A flag, not a mutex held across the wait below: the holder parks in
  // clock-routed waits, and a blocked lock would stall a virtual-time run.
  {
    std::unique_lock<std::mutex> lock(peer_fetch_mutex_);
    peer_fetch_cv_.wait(lock, [this] { return !peer_fetch_busy_; });
    peer_fetch_busy_ = true;
  }
  struct Release {
    DataProxy& proxy;
    ~Release() {
      {
        std::lock_guard<std::mutex> lock(proxy.peer_fetch_mutex_);
        proxy.peer_fetch_busy_ = false;
      }
      proxy.peer_fetch_cv_.notify_one();
    }
  } release{*this};
  PeerFetchRequest req;
  req.id = id;
  req.seq = peer_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
  req.min_version = min_version;
  req.reply_rank = peer_comm_->rank();
  util::ByteBuffer payload;
  req.serialize(payload);
  peer_comm_->send(peer + 1, comm::kTagPeerFetch, std::move(payload));

  const auto deadline = util::clock_now() + peer_fetch_timeout_;
  while (true) {
    const auto left = deadline - util::clock_now();
    auto msg = peer_comm_->try_recv(
        comm::kAnySource, comm::kTagPeerBlock,
        std::max(std::chrono::ceil<std::chrono::milliseconds>(left), std::chrono::milliseconds(0)));
    if (!msg) {
      timed_out = true;
      return nullptr;
    }
    auto reply = PeerBlockReply::deserialize(msg->payload, std::move(msg->body));
    if (reply.seq != req.seq) {
      // A reply to an earlier fetch that already timed out, or a transport
      // duplicate of one we consumed: identified by seq and dropped.
      continue;
    }
    if (reply.found == 0) {
      return nullptr;
    }
    version_out = reply.version;
    return reply.blob;  // the owner's allocation, cached here as is
  }
}

void DataProxy::push_to_owners(ItemId id, const Blob& blob, const std::vector<int>& owners,
                               std::uint64_t version) {
  for (const int owner : owners) {
    if (owner == config_.proxy_id || shard_map_->is_dead(owner)) {
      continue;
    }
    PeerPush push;
    push.id = id;
    push.version = version;
    push.blob = blob;
    util::ByteBuffer header;
    push.serialize(header);
    peer_comm_->send(owner + 1, comm::kTagPeerPush, std::move(header), blob);
    stats_->record_peer_push();
  }
}

void DataProxy::peer_service_loop() {
  while (!peer_stop_.load(std::memory_order_acquire)) {
    try {
      auto msg = peer_comm_->try_recv(comm::kAnySource, {comm::kTagPeerFetch, comm::kTagPeerPush},
                                      kPeerServiceStopCheck);
      if (!msg) {
        continue;
      }
      if (msg->tag == comm::kTagPeerFetch) {
        serve_peer_fetch(*msg);
      } else {
        apply_peer_push(*msg);
      }
    } catch (const comm::TransportClosed&) {
      return;
    } catch (const std::exception& e) {
      VIRA_WARN("dms") << "peer service on proxy " << config_.proxy_id << ": " << e.what();
    }
  }
}

void DataProxy::serve_peer_fetch(comm::Message& msg) {
  auto req = PeerFetchRequest::deserialize(msg.payload);
  // The requester's version floor rides along on every fetch, so even an
  // owner whose bump listener lags learns of the invalidation here.
  raise_data_version(req.min_version);

  PeerBlockReply reply;
  reply.seq = req.seq;
  if (shard_map_ && !shard_map_->is_owner(req.id, config_.proxy_id)) {
    // Routing disagreement (the requester's map is ahead or behind ours on
    // death marks). Still answered from cache if possible — but counted.
    stats_->record_shard_misroute();
  }
  if (Blob blob = cache_->peek_deep(req.id)) {
    const std::uint64_t version = item_version(req.id);
    if (version < req.min_version) {
      // Pre-bump replica: refusing is what keeps a stale copy from
      // resurrecting invalidated bytes. Drop it locally too.
      evict_stale(req.id);
      stats_->record_stale_replica_reject();
    } else {
      reply.found = 1;
      reply.version = version;
      reply.blob = std::move(blob);
    }
  }
  // The cached blob goes out as the body: the requester gets this very
  // allocation, and no block byte is copied.
  util::ByteBuffer header;
  reply.serialize(header);
  peer_comm_->send(req.reply_rank, comm::kTagPeerBlock, std::move(header), std::move(reply.blob));
}

void DataProxy::apply_peer_push(comm::Message& msg) {
  auto push = PeerPush::deserialize(msg.payload, std::move(msg.body));
  raise_data_version(push.version);
  if (push.version < data_version_.load(std::memory_order_acquire)) {
    return;  // the push crossed a bump on the wire; its bytes are already stale
  }
  cache_->put(push.id, push.blob, /*from_prefetch=*/false);
  stamp_version(push.id, push.version);
  server_->report_insert(config_.proxy_id, push.id);
}

void DataProxy::run_prefetch_suggestions() {
  std::vector<ItemId> suggestions;
  {
    std::lock_guard<std::mutex> lock(prefetcher_mutex_);
    suggestions = prefetcher_->suggest(config_.prefetch_depth);
  }
  for (const ItemId id : suggestions) {
    if (cache_->contains_l1(id)) {
      continue;  // already resident
    }
    issue_prefetch(id);
  }
}

void DataProxy::code_prefetch(const DataItemName& name) {
  const ItemId id = resolver_.resolve(name);
  if (cache_->contains_l1(id)) {
    return;
  }
  issue_prefetch(id);
}

void DataProxy::issue_prefetch(ItemId id) {
  stats_->record_prefetch_issued();
  if (!config_.async_prefetch) {
    prefetch_one(id);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    ++prefetch_inflight_;
  }
  if (!prefetch_queue_.push(id)) {
    prefetch_settled();
  }
}

void DataProxy::prefetch_settled() {
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    if (--prefetch_inflight_ > 0) {
      return;
    }
  }
  idle_cv_.notify_all();
}

void DataProxy::prefetch_worker() {
  // The pop wakes on the push, so a suggestion starts loading while the
  // request that made it is still being computed on.
  while (auto id = prefetch_queue_.pop()) {
    try {
      prefetch_one(*id);
    } catch (const comm::TransportClosed&) {
      // Teardown closed the rank transport under a peer fetch.
      VIRA_DEBUG("dms") << "prefetch of item " << *id << " dropped: transport shut down";
    } catch (const std::exception& e) {
      VIRA_WARN("dms") << "prefetch of item " << *id << " failed: " << e.what();
    }
    prefetch_settled();
  }
}

void DataProxy::prefetch_one(ItemId id) {
  if (cache_->contains_l1(id)) {
    return;
  }
  const auto name = resolver_.reverse(id);
  if (!name) {
    const auto looked_up = server_->lookup(id);
    if (!looked_up) {
      return;
    }
    (void)load_item(id, *looked_up, /*from_prefetch=*/true);
    return;
  }
  (void)load_item(id, *name, /*from_prefetch=*/true);
}

void DataProxy::quiesce() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] { return prefetch_inflight_ == 0; });
}

void DataProxy::clear_cache() {
  quiesce();
  for (const ItemId id : cache_->l1().resident()) {
    server_->report_evict(config_.proxy_id, id);
  }
  cache_->clear();
}

}  // namespace vira::dms
