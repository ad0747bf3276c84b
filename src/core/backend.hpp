#pragma once

/// \file backend.hpp
/// The assembled Viracocha post-processing backend.
///
/// Owns the whole server side of Figure 2: the scheduler (rank 0), N
/// workers (ranks 1..N, one thread each), the DMS (central data server +
/// one proxy per worker, each serving its siblings' peer transfers over its
/// worker's rank communicator), and the client attachment point (in-process
/// link or a real TCP listener). It is the only place the runtime is
/// assembled: the rank transport and the data source are injectable, so
/// fault tests and the DST harness run this same stack over a
/// fault-injecting or virtual-time transport.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "comm/client_link.hpp"
#include "comm/transport.hpp"
#include "core/scheduler.hpp"
#include "core/worker.hpp"
#include "dms/data_server.hpp"
#include "net/event_loop.hpp"

namespace vira::core {

struct BackendConfig {
  int workers = 4;

  /// Tuning of the TCP frontend serve_tcp() starts, the vira::net event
  /// loop (threads, send budgets, reap deadline).
  net::NetConfig net;

  /// Per-worker primary cache budget; "fbr" won the paper's evaluation.
  std::uint64_t l1_cache_bytes = 256ull << 20;
  std::string cache_policy = "fbr";
  /// Secondary (disk) cache directory; empty disables the tier.
  /// "<auto>" picks a temp dir per proxy.
  std::string l2_directory;
  std::uint64_t l2_cache_bytes = 1ull << 30;

  bool async_prefetch = true;
  std::size_t prefetch_depth = 2;

  dms::LoadEnvironment environment;
  /// Artificial storage slow-down (µs per MiB) of the default VmbDataSource
  /// for I/O-sensitive benches.
  double read_delay_us_per_mb = 0.0;

  /// Route proxy↔server DMS traffic through rank messages serviced by the
  /// scheduler (the paper's distributed wiring, at the cost of "additional
  /// communication for every load operation", Sec. 4.3). false = direct
  /// calls (single-process wiring).
  bool dms_over_messages = false;

  /// Sharded DMS (DESIGN.md §12). dms_shards > 1 spreads block ownership
  /// over the first min(dms_shards, workers) proxies by consistent hashing;
  /// misses go to the owners instead of asking the central server for a
  /// strategy. dms_replication ≥ 2 places every block on R owners so a
  /// killed rank's blocks re-serve from a surviving replica. With the
  /// default (1) the central server's fitness function picks each load's
  /// strategy. Either way a peer transfer is a kTagPeerFetch over the rank
  /// transport.
  int dms_shards = 1;
  int dms_replication = 1;
  /// How long a peer transfer waits for the peer's answer before trying the
  /// next source. Sharded, the silent owner is also marked dead and the
  /// next replica tried.
  int dms_peer_timeout_ms = 50;

  /// Liveness / recovery policy (DESIGN.md "Failure model").
  WorkerConfig worker;
  SchedulerConfig scheduler;
};

class Backend {
 public:
  /// `transport` carries the rank traffic and must have workers + 1
  /// endpoints; the default is an InProcTransport. Fault tests and DST
  /// pass a comm::FaultInjectingTransport over one.
  /// `source` serves the DMS loads; the default is a VmbDataSource, the
  /// only source that answers commands' dataset-metadata queries. Threads
  /// start and join through the util::Clock thread hooks, so the whole
  /// stack can run under a virtual clock.
  explicit Backend(BackendConfig config = BackendConfig{},
                   std::shared_ptr<comm::Transport> transport = nullptr,
                   std::shared_ptr<dms::DataSource> source = nullptr);
  ~Backend();
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// In-process client connection (the examples' default).
  std::shared_ptr<comm::ClientLink> connect();

  /// Starts the TCP frontend (net::EventLoop); every accepted connection
  /// becomes an additional client. Returns the bound port.
  std::uint16_t serve_tcp(std::uint16_t port = 0);

  /// Stops scheduler, workers and the TCP frontend. Idempotent.
  void shutdown();

  /// --- introspection for benches and tests --------------------------------
  int worker_count() const { return config_.workers; }
  dms::DataServer& data_server() { return *data_server_; }
  dms::DataProxy& worker_proxy(int index) { return *proxies_.at(static_cast<std::size_t>(index)); }
  Scheduler& scheduler() { return *scheduler_; }
  /// The TCP frontend, or nullptr before serve_tcp().
  net::EventLoop* event_loop() { return event_loop_.get(); }

  /// Drops every proxy's cache (cold-start switch).
  void clear_caches();

  /// Merged DMS counters over all proxies. The async_* pipeline fields stay
  /// zero: they are per proxy (worker_proxy(i).stats()).
  dms::DmsCounters dms_counters() const;

 private:
  BackendConfig config_;
  std::shared_ptr<comm::Transport> transport_;
  std::shared_ptr<dms::DataServer> data_server_;
  std::vector<std::shared_ptr<dms::DataProxy>> proxies_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Scheduler> scheduler_;

  std::vector<std::thread> worker_threads_;
  std::thread scheduler_thread_;

  std::unique_ptr<net::EventLoop> event_loop_;
  std::atomic<bool> down_{false};
};

}  // namespace vira::core
