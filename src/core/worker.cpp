#include "core/worker.hpp"

#include <algorithm>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace vira::core {

Worker::Worker(std::shared_ptr<comm::Communicator> comm, std::shared_ptr<dms::DataProxy> proxy,
               std::shared_ptr<VmbDataSource> source, WorkerConfig config)
    : comm_(std::move(comm)),
      proxy_(std::move(proxy)),
      source_(std::move(source)),
      config_(config) {
  if (!comm_) {
    throw std::invalid_argument("Worker: communicator required");
  }
}

void Worker::run() {
  VIRA_DEBUG("worker") << "rank " << comm_->rank() << " entering service loop";
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = false;
  }
  if (config_.pipeline_threads > 0) {
    // The pipelined block executor's pool. TaskPool announces its threads
    // through the clock seam itself; the rank-qualified name keeps the
    // participant names unique across workers in one (DST) process.
    pool_ = std::make_unique<util::TaskPool>(config_.pipeline_threads,
                                             "worker.pool." + std::to_string(comm_->rank()));
  }
  std::thread heartbeat;
  if (config_.heartbeat_interval.count() > 0) {
    heartbeat = util::spawn_thread("worker.hb." + std::to_string(comm_->rank()),
                                   [this] { heartbeat_loop(); });
  }
  try {
    // Receive only control tags: anything else (e.g. a DMS reply destined
    // for the proxy's prefetch thread) stays buffered for its addressee.
    std::uint64_t last_started = 0;
    while (true) {
      auto msg = comm_->try_recv(comm::kAnySource, {kTagShutdown, kTagExecute},
                                 std::chrono::milliseconds(50));
      if (!msg) {
        continue;
      }
      if (msg->tag == kTagShutdown) {
        break;
      }
      ExecuteOrder order = ExecuteOrder::deserialize(msg->payload);
      // Internal ids only grow, and a rank gets a new order only after its
      // previous one ended or was abandoned: an id not above the last one
      // started is a duplicated or late copy of finished work.
      if (order.request_id <= last_started) {
        continue;
      }
      last_started = order.request_id;
      execute_order(std::move(order));
    }
  } catch (const comm::TransportClosed&) {
    // Orderly teardown path.
  }
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (heartbeat.joinable()) {
    util::global_clock().join_thread(heartbeat);
  }
  pool_.reset();  // cancels queued loads, joins pool threads
  VIRA_DEBUG("worker") << "rank " << comm_->rank() << " left service loop";
}

void Worker::heartbeat_loop() {
  // The beacon must keep flowing while the service thread is stuck in a
  // long compute loop or a collective — that is the whole point: liveness
  // is about the process, progress is judged by the scheduler.
  while (true) {
    try {
      Heartbeat beat;
      beat.rank = comm_->rank();
      beat.current_request = current_request_.load();
      util::ByteBuffer payload;
      beat.serialize(payload);
      comm_->send(0, kTagHeartbeat, std::move(payload));
      // Poll with a small nonzero timeout: this thread must pump the
      // transport itself, because the service thread stops pumping while it
      // is inside command compute code.
      auto abort_msg =
          comm_->try_recv(comm::kAnySource, kTagGroupAbort, std::chrono::milliseconds(1));
      if (abort_msg) {
        const auto request_id = abort_msg->payload.read<std::uint64_t>();
        abort_request_.store(request_id);
        VIRA_DEBUG("worker") << "rank " << comm_->rank() << " told to abandon request "
                             << request_id;
      }
    } catch (const comm::TransportClosed&) {
      return;
    }
    std::unique_lock<std::mutex> lock(stop_mutex_);
    if (stop_cv_.wait_until(lock, util::clock_deadline(config_.heartbeat_interval),
                            [this] { return stopping_; })) {
      return;
    }
  }
}

void Worker::execute_order(ExecuteOrder order) {
  const std::uint64_t request_id = order.request_id;
  std::uint32_t sequence = 0;

  // Partition index = this rank's slot in the group. It is the stable
  // fragment identity across retries: a re-formed group maps partition k to
  // the same share of the data even when a different physical rank runs it.
  const auto slot = std::find(order.group_ranks.begin(), order.group_ranks.end(),
                              static_cast<std::int32_t>(comm_->rank()));
  const std::int32_t partition =
      slot != order.group_ranks.end()
          ? static_cast<std::int32_t>(std::distance(order.group_ranks.begin(), slot))
          : -1;

  current_request_.store(request_id);

  // Trace context: the span annotates the client-visible request id
  // (trace_request) and parents under the scheduler's attempt span; the
  // ContextScope makes every span opened on this thread during execution
  // (phase mirrors, DMS loads, transport sends) stitch beneath it.
  auto exec_span = obs::Tracer::instance().start("worker.execute", order.trace_request,
                                                 comm_->rank(), order.parent_span);
  if (exec_span.active()) {
    exec_span.arg("partition", partition);
    exec_span.arg("internal_request", static_cast<std::int64_t>(request_id));
  }
  obs::ContextScope trace_scope(exec_span.context());

  CommandContext::Hooks hooks;
  hooks.stream_partial = [this, request_id, partition, &sequence](util::ByteBuffer fragment) {
    util::ByteBuffer packet;
    FragmentHeader header{request_id, partition, sequence++};
    header.span_id = obs::current_context().span_id;
    header.serialize(packet);
    packet.write<std::uint64_t>(fragment.size());
    packet.write_raw(fragment.data(), fragment.size());
    comm_->send(0, kTagStream, std::move(packet));
  };
  hooks.send_final = [this, request_id, partition, &sequence](util::ByteBuffer result) {
    util::ByteBuffer packet;
    FragmentHeader header{request_id, partition, sequence++};
    header.span_id = obs::current_context().span_id;
    header.serialize(packet);
    packet.write<std::uint64_t>(result.size());
    packet.write_raw(result.data(), result.size());
    comm_->send(0, kTagFinalResult, std::move(packet));
  };
  hooks.report_progress = [this, request_id](double fraction) {
    util::ByteBuffer packet;
    packet.write<std::uint64_t>(request_id);
    packet.write<double>(fraction);
    comm_->send(0, kTagProgressUp, std::move(packet));
  };
  hooks.dataset_meta = [this](const std::string& dir) -> const grid::DatasetMeta& {
    if (!source_) {
      throw std::runtime_error("dataset metadata of " + dir + " needs a .vmb data source");
    }
    return source_->meta(dir);
  };
  hooks.should_abort = [this, request_id] { return abort_request_.load() == request_id; };

  std::vector<int> group_ranks(order.group_ranks.begin(), order.group_ranks.end());
  CommandContext context(request_id, order.params, comm_.get(), std::move(group_ranks),
                         order.master_rank, proxy_.get(), std::move(hooks), pool_.get());

  // Mirror PhaseTimer transitions into obs spans ("compute"/"read"/"send"
  // children of worker.execute) — commands keep their PhaseTimer API, the
  // trace gets the per-phase intervals for free.
  auto phase_span = std::make_shared<obs::ActiveSpan>();
  context.phases().set_listener(
      [phase_span](const std::string& /*previous*/, const std::string& next) {
        phase_span->end();
        if (!next.empty()) {
          *phase_span = obs::Tracer::instance().start_child(next);
        }
      });

  WorkerReport report;
  report.request_id = request_id;
  report.rank = comm_->rank();
  try {
    auto command = CommandRegistry::global().create(order.command);
    VIRA_DEBUG("worker") << "rank " << comm_->rank() << " executing " << order.command
                         << " (request " << request_id << ")";
    command->execute(context);
    context.phases().stop();
    report.success = true;
  } catch (const CommandAborted& e) {
    context.phases().stop();
    report.success = false;
    report.error = e.what();
    VIRA_DEBUG("worker") << "rank " << comm_->rank() << " abandoned " << order.command
                         << " (request " << request_id << ")";
  } catch (const std::exception& e) {
    context.phases().stop();
    report.success = false;
    report.error = e.what();
    VIRA_ERROR("worker") << "rank " << comm_->rank() << " command " << order.command
                         << " failed: " << e.what();
  }
  report.phase_seconds = context.phases().phases();
  report.fragments = sequence;
  current_request_.store(0);
  phase_span->end();
  if (exec_span.active()) {
    exec_span.arg("success", report.success ? 1 : 0);
  }
  exec_span.end();

  static obs::Counter& commands_counter = obs::Registry::instance().counter("worker.commands");
  commands_counter.add();

  util::ByteBuffer payload;
  report.serialize(payload);
  comm_->send(0, kTagWorkerDone, std::move(payload));
}

}  // namespace vira::core
