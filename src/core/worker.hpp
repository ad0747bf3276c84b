#pragma once

/// \file worker.hpp
/// Worker process of the middle layer (paper Sec. 3).
///
/// A worker blocks on its communicator until the scheduler sends an
/// ExecuteOrder, instantiates the named command from the registry, runs it
/// with a fully wired CommandContext, and reports completion (with its
/// phase breakdown) back to the scheduler. Streamed fragments and final
/// results are relayed through the scheduler to the client link.
///
/// Liveness: while run() is active a dedicated heartbeat thread sends
/// kTagHeartbeat beacons (rank + currently executed request) every
/// `WorkerConfig::heartbeat_interval`, even while the service thread is
/// deep inside a long command. The same thread polls for kTagGroupAbort so
/// a worker stuck in a collective on a dead peer unblocks and returns to
/// the pool (see DESIGN.md "Failure model").

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "comm/communicator.hpp"
#include "core/command.hpp"
#include "core/protocol.hpp"
#include "core/vmb_data_source.hpp"
#include "dms/data_proxy.hpp"
#include "util/clock.hpp"

namespace vira::core {

struct WorkerConfig {
  /// Zero disables heartbeats (and abort polling) entirely — the seed's
  /// original fail-stop behavior.
  std::chrono::milliseconds heartbeat_interval{25};
  /// Threads of the node's task pool backing the pipelined block executor
  /// (algo::BlockPipeline). Zero disables the pool: every command runs its
  /// load loop strictly serially, the seed's original behavior.
  int pipeline_threads = 2;
};

class Worker {
 public:
  /// `comm` is shared so the DMS's RemoteServerApi (if configured) can use
  /// the same rank endpoint from the proxy's prefetch thread. `source`
  /// answers commands' dataset-metadata queries; without one (a Backend
  /// over another DataSource) such a query fails the command. Commands
  /// come from CommandRegistry::global().
  Worker(std::shared_ptr<comm::Communicator> comm, std::shared_ptr<dms::DataProxy> proxy,
         std::shared_ptr<VmbDataSource> source, WorkerConfig config = WorkerConfig{});

  /// Blocks until shutdown (kTagShutdown or transport closed).
  void run();

  dms::DataProxy& proxy() { return *proxy_; }
  int rank() const { return comm_->rank(); }

 private:
  void execute_order(ExecuteOrder order);
  void heartbeat_loop();

  /// Live only while run() is active (pool threads are clock participants
  /// and must begin/end inside the service scope, like the heartbeat).
  std::unique_ptr<util::TaskPool> pool_;
  std::shared_ptr<comm::Communicator> comm_;
  std::shared_ptr<dms::DataProxy> proxy_;
  std::shared_ptr<VmbDataSource> source_;
  WorkerConfig config_;

  /// Internal id of the request being executed (0 = idle); read by the
  /// heartbeat thread so beacons carry what the worker is doing.
  std::atomic<std::uint64_t> current_request_{0};
  /// Internal id the scheduler told us to abandon (0 = none).
  std::atomic<std::uint64_t> abort_request_{0};
  /// Set when run() leaves its service loop; ends the heartbeat's wait.
  std::mutex stop_mutex_;
  util::ClockCondition stop_cv_;
  bool stopping_ = false;
};

}  // namespace vira::core
