#include "core/backend.hpp"

#include <unistd.h>

#include <filesystem>
#include <stdexcept>

#include "core/remote_server_api.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace vira::core {

Backend::Backend(BackendConfig config, std::shared_ptr<comm::Transport> transport,
                 std::shared_ptr<dms::DataSource> source)
    : config_(std::move(config)), transport_(std::move(transport)) {
  if (config_.workers < 1) {
    throw std::invalid_argument("Backend: need at least one worker");
  }
  if (!transport_) {
    transport_ = std::make_shared<comm::InProcTransport>(config_.workers + 1);
  }
  if (transport_->size() != config_.workers + 1) {
    throw std::invalid_argument("Backend: transport needs workers + 1 = " +
                                std::to_string(config_.workers + 1) + " ranks, has " +
                                std::to_string(transport_->size()));
  }
  if (!source) {
    auto vmb = std::make_shared<VmbDataSource>();
    vmb->set_read_delay_us_per_mb(config_.read_delay_us_per_mb);
    source = std::move(vmb);
  }
  const auto vmb_source = std::dynamic_pointer_cast<VmbDataSource>(source);
  data_server_ = std::make_shared<dms::DataServer>(config_.environment);

  // One worker and one proxy per node (paper Fig. 3) on one communicator:
  // the proxy's peer transfers (and, with dms_over_messages, its server
  // RPCs) cross the rank transport like any other message. Sharded, each
  // proxy gets its own ShardMap with the same (seed, members, vnodes):
  // identical routing with no shared state, as distributed ranks would
  // hold it. Death marks stay local to each proxy (its own fetch timeouts).
  dms::ShardMap::Config shard_config;
  shard_config.members = std::min(config_.dms_shards, config_.workers);
  shard_config.replication = config_.dms_replication;
  const auto peer_timeout = std::chrono::milliseconds(config_.dms_peer_timeout_ms);
  for (int index = 0; index < config_.workers; ++index) {
    dms::DataProxyConfig proxy_config;
    proxy_config.proxy_id = index;
    proxy_config.cache.l1_capacity_bytes = config_.l1_cache_bytes;
    proxy_config.cache.policy = config_.cache_policy;
    if (config_.l2_directory == "<auto>") {
      // The pid keeps the name unique across processes: two test binaries
      // running at once may build their backends at the same address.
      proxy_config.cache.l2_directory =
          (std::filesystem::temp_directory_path() /
           ("vira_l2_proxy_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + "_" + std::to_string(index)))
              .string();
      proxy_config.cache.l2_capacity_bytes = config_.l2_cache_bytes;
    } else if (!config_.l2_directory.empty()) {
      proxy_config.cache.l2_directory = config_.l2_directory + "/proxy_" + std::to_string(index);
      proxy_config.cache.l2_capacity_bytes = config_.l2_cache_bytes;
    }
    proxy_config.async_prefetch = config_.async_prefetch;
    proxy_config.prefetch_depth = config_.prefetch_depth;
    const auto rank_comm = std::make_shared<comm::Communicator>(transport_, index + 1);
    std::shared_ptr<dms::ServerApi> server_api = data_server_;
    if (config_.dms_over_messages) {
      server_api = std::make_shared<RemoteServerApi>(rank_comm);
    }
    auto proxy = std::make_shared<dms::DataProxy>(proxy_config, server_api, source);
    if (config_.dms_shards > 1) {
      proxy->configure_sharding(std::make_shared<dms::ShardMap>(shard_config), rank_comm,
                                peer_timeout);
    } else {
      proxy->connect_peers(rank_comm, peer_timeout);
    }
    proxies_.push_back(proxy);
    workers_.push_back(std::make_unique<Worker>(rank_comm, std::move(proxy), vmb_source,
                                                config_.worker));
  }

  if (config_.dms_shards > 1) {
    // Bump invalidation must reach every replica, not just the scheduler's
    // result cache: fan the name service's version feed out to all proxies.
    data_server_->names().on_bump([this](std::uint64_t version) {
      for (auto& proxy : proxies_) {
        proxy->on_data_version(version);
      }
    });
  }

  scheduler_ = std::make_unique<Scheduler>(transport_, config_.workers, data_server_,
                                           config_.scheduler);

  scheduler_thread_ = util::spawn_thread("sched", [this] { scheduler_->run(); });
  for (auto& worker : workers_) {
    worker_threads_.push_back(util::spawn_thread("worker." + std::to_string(worker->rank()),
                                                 [worker = worker.get()] { worker->run(); }));
  }
}

Backend::~Backend() { shutdown(); }

std::shared_ptr<comm::ClientLink> Backend::connect() {
  // Every client send wakes the scheduler, so pickup does not wait out
  // its idle poll (the event loop does the same for TCP links).
  auto [client_side, server_side] = comm::make_inproc_link_pair(scheduler_->nudger());
  scheduler_->attach_client(server_side);
  return client_side;
}

std::uint16_t Backend::serve_tcp(std::uint16_t port) {
  event_loop_ = std::make_unique<net::EventLoop>(port, config_.net);
  // Every accepted connection becomes an additional client; the scheduler
  // routes each request's results back to its submitter.
  event_loop_->set_on_accept([this](std::shared_ptr<comm::ClientLink> link) {
    VIRA_INFO("backend") << "TCP client connected";
    scheduler_->attach_client(std::move(link));
  });
  // Event-driven request pickup: inbound frames (and link closes) pop the
  // scheduler out of its idle poll wait instead of waiting for the tick.
  event_loop_->set_on_readable(scheduler_->nudger());
  event_loop_->start();
  const std::uint16_t bound = event_loop_->port();
  VIRA_INFO("backend") << "listening on 127.0.0.1:" << bound << " ("
                       << config_.net.threads << " event-loop thread(s))";
  return bound;
}

void Backend::shutdown() {
  if (down_.exchange(true)) {
    return;
  }
  // Stop the event loop before the scheduler: teardown closes every link's
  // incoming queue, so a scheduler tick mid-shutdown sees closed links, not
  // a recv racing a dying loop thread.
  if (event_loop_) {
    event_loop_->stop();
  }
  scheduler_->stop();
  util::global_clock().join_thread(scheduler_thread_);
  // Close the transport BEFORE joining workers: a rank "killed" by a fault
  // injector can never receive the orderly kTagShutdown (delivery to it is
  // suppressed), so its service loop only exits via TransportClosed.
  transport_->shutdown();
  for (auto& thread : worker_threads_) {
    util::global_clock().join_thread(thread);
  }
  // Drain every proxy's prefetch pipeline, so no speculative load is still
  // running once shutdown returns and the DMS counters read afterwards are
  // final. Proxies reach each other only over the closed transport.
  for (auto& proxy : proxies_) {
    proxy->quiesce();
  }
}

void Backend::clear_caches() {
  for (auto& proxy : proxies_) {
    proxy->clear_cache();
  }
}

dms::DmsCounters Backend::dms_counters() const {
  dms::DmsCounters total;
  for (const auto& proxy : proxies_) {
    const auto counters = proxy->stats().snapshot();
    total.requests += counters.requests;
    total.l1_hits += counters.l1_hits;
    total.l2_hits += counters.l2_hits;
    total.misses += counters.misses;
    total.prefetch_issued += counters.prefetch_issued;
    total.prefetch_useful += counters.prefetch_useful;
    total.inflight_waits += counters.inflight_waits;
    total.evictions_l1 += counters.evictions_l1;
    total.evictions_l2 += counters.evictions_l2;
    total.l2_respills += counters.l2_respills;
    total.demotions_dropped_oversize += counters.demotions_dropped_oversize;
    total.demotions_dropped_io += counters.demotions_dropped_io;
    total.peer_fetches += counters.peer_fetches;
    total.peer_fetch_misses += counters.peer_fetch_misses;
    total.peer_fetch_timeouts += counters.peer_fetch_timeouts;
    total.peer_pushes += counters.peer_pushes;
    total.replica_promotions += counters.replica_promotions;
    total.peer_fallback_disk += counters.peer_fallback_disk;
    total.shard_misroutes += counters.shard_misroutes;
    total.stale_replica_rejects += counters.stale_replica_rejects;
    total.bytes_loaded += counters.bytes_loaded;
    total.load_seconds += counters.load_seconds;
  }
  return total;
}

}  // namespace vira::core
