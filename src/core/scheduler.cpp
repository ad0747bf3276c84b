#include "core/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/clock.hpp"

#include "core/remote_server_api.hpp"

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace vira::core {

namespace {
/// Scheduler instruments (resolved once; see obs::Registry contract).
struct SchedulerMetrics {
  obs::Counter& requests = obs::Registry::instance().counter("sched.requests");
  obs::Counter& retries = obs::Registry::instance().counter("sched.retries");
  obs::Counter& degraded = obs::Registry::instance().counter("sched.degraded");
  obs::Counter& failed = obs::Registry::instance().counter("sched.failed");
  obs::Counter& lost_workers = obs::Registry::instance().counter("sched.lost_workers");
  obs::Counter& fragments = obs::Registry::instance().counter("sched.fragments_forwarded");
  obs::Counter& backfills = obs::Registry::instance().counter("sched.backfills");
  obs::Counter& rejected = obs::Registry::instance().counter("sched.rejected");
  obs::Counter& reaped = obs::Registry::instance().counter("sched.reaped");
  obs::Counter& molded = obs::Registry::instance().counter("sched.molded");
  obs::Gauge& queue_depth = obs::Registry::instance().gauge("sched.queue_depth");
  obs::Histogram& runtime = obs::Registry::instance().histogram("sched.request_seconds");
  obs::Histogram& latency = obs::Registry::instance().histogram("sched.latency_seconds");
  obs::Histogram& wait = obs::Registry::instance().histogram("sched.wait_seconds");
};

SchedulerMetrics& metrics() {
  static SchedulerMetrics* instruments = new SchedulerMetrics();
  return *instruments;
}

/// Per-client queue-wait gauge (latest wait in ms). Client count is small
/// and bounded by attach_client calls, so the registry lookup per dispatch
/// is cheap and the instrument set stays finite.
obs::Gauge& client_wait_gauge(std::size_t client) {
  return obs::Registry::instance().gauge("sched.client." + std::to_string(client) +
                                         ".wait_ms");
}

/// Stable fragment identity within one logical request: partition index in
/// the high half, per-partition sequence in the low half. Partition indices
/// survive work-group re-formation (see FragmentHeader), so this key makes
/// retried deliveries — and transport-level duplicates — idempotent.
std::uint64_t fragment_key(std::int32_t partition, std::uint32_t sequence) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(partition)) << 32) | sequence;
}
}  // namespace

Scheduler::Scheduler(std::shared_ptr<comm::Transport> transport, int worker_count,
                     std::shared_ptr<dms::DataServer> data_server, SchedulerConfig config)
    : comm_(transport, 0),
      worker_count_(worker_count),
      config_(config),
      data_server_(std::move(data_server)),
      transport_(std::move(transport)) {
  if (!data_server_) {
    throw std::invalid_argument("Scheduler: data server required");
  }
  if (config_.result_cache.enabled) {
    result_cache_ = std::make_unique<ResultCache>(config_.result_cache);
  }
  const auto now = util::clock_now();
  for (int rank = 1; rank <= worker_count_; ++rank) {
    free_.insert(rank);
    last_seen_[rank] = now;
  }
  free_count_.store(free_.size(), std::memory_order_relaxed);
}

void Scheduler::attach_client(std::shared_ptr<comm::ClientLink> link) {
  std::lock_guard<std::mutex> lock(client_mutex_);
  clients_.push_back(std::move(link));
}

std::size_t Scheduler::client_count() const {
  std::lock_guard<std::mutex> lock(client_mutex_);
  std::size_t live = 0;
  for (const auto& client : clients_) {
    if (client && !client->closed()) {
      ++live;
    }
  }
  return live;
}

void Scheduler::send_to_client(std::size_t client, int tag, util::ByteBuffer payload,
                               std::uint64_t trace_request, std::uint64_t trace_span) {
  std::shared_ptr<comm::ClientLink> link;
  {
    std::lock_guard<std::mutex> lock(client_mutex_);
    if (client < clients_.size()) {
      link = clients_[client];
    }
  }
  if (link && !link->closed()) {
    comm::Message msg;
    msg.source = 0;
    msg.tag = tag;
    msg.payload = std::move(payload);
    msg.trace_request = trace_request;
    msg.trace_span = trace_span;
    link->send(std::move(msg));
  }
}

namespace {
/// Collapse bursts: one kTagNudge in flight at a time. The flag is cleared
/// by poll_workers when the message is consumed. On a fault-injecting
/// transport the nudge may be dropped with the flag left set — then pickup
/// degrades to the idle_poll cadence until the next consumed nudge, which
/// is the pre-nudge behavior, not a hang.
void ring(comm::Transport& transport, std::atomic<bool>& pending) {
  if (!pending.exchange(true, std::memory_order_acq_rel)) {
    comm::Message msg;
    msg.source = 0;
    msg.tag = kTagNudge;
    transport.send(0, std::move(msg));
  }
}
}  // namespace

std::function<void()> Scheduler::nudger() {
  return [transport = transport_, pending = nudge_pending_] { ring(*transport, *pending); };
}

void Scheduler::run() {
  running_ = true;
  {
    // Workers have had no chance to speak yet; restart the death clocks so
    // construction-to-run delay cannot count against them.
    const auto now = util::clock_now();
    for (int rank = 1; rank <= worker_count_; ++rank) {
      last_seen_[rank] = now;
    }
  }
  VIRA_INFO("scheduler") << "serving " << worker_count_ << " workers";
  while (running_) {
    // A tick that took client work dispatches it without the idle wait: a
    // queued cache hit is then served in the tick that picked it up.
    const bool client_work = poll_clients();
    poll_workers(/*idle=*/!client_work);
    check_liveness();
    dispatch_pending();
    // Refresh the race-free diagnostic mirrors once per tick; the private
    // containers themselves are scheduler-thread-only.
    free_count_.store(free_.size(), std::memory_order_relaxed);
    pending_count_.store(pending_.size(), std::memory_order_relaxed);
    group_count_.store(groups_.size(), std::memory_order_relaxed);
  }
  // Orderly worker shutdown (dead ranks included: the message is cheap and
  // a wrongly-declared-dead worker still deserves to exit).
  for (int rank = 1; rank <= worker_count_; ++rank) {
    comm_.send(rank, kTagShutdown, {});
  }
  VIRA_INFO("scheduler") << "stopped";
}

void Scheduler::stop() { running_ = false; }

std::size_t Scheduler::free_workers() const {
  return free_count_.load(std::memory_order_relaxed);
}

std::size_t Scheduler::queued_requests() const {
  return pending_count_.load(std::memory_order_relaxed);
}

bool Scheduler::poll_clients() {
  // Snapshot the link list, then poll each without blocking long. Requests
  // are internally re-keyed: different clients may reuse the same
  // client-side request id, so the scheduler assigns a globally unique id
  // for worker traffic and translates back at the client boundary.
  std::vector<std::shared_ptr<comm::ClientLink>> links;
  {
    std::lock_guard<std::mutex> lock(client_mutex_);
    links = clients_;
  }
  if (links.empty()) {
    // No one to poll. The idle wait happens in poll_workers' blocking
    // try_recv instead of a sleep here: a nudge interrupts that wait, so
    // the first client's first frames are picked up promptly instead of
    // after the remainder of a full idle_poll slice.
    return false;
  }

  bool any = false;
  for (std::size_t client = 0; client < links.size(); ++client) {
    if (!links[client] || links[client]->closed()) {
      continue;
    }
    auto msg = links[client]->recv(std::chrono::milliseconds(0));
    if (!msg) {
      continue;
    }
    any = true;
    switch (msg->tag) {
      case kTagSubmit: {
        auto request = CommandRequest::deserialize(msg->payload);
        VIRA_DEBUG("scheduler") << "client " << client << " submits request "
                                << request.request_id << " (" << request.command << ")";
        // Admission control: a client may only hold a bounded number of
        // queued (not yet dispatched) requests; beyond that the submission
        // is refused outright so pending_ cannot grow without limit.
        if (config_.max_queue_per_client > 0) {
          std::size_t depth = 0;
          for (const auto& queued : pending_) {
            depth += queued.client == client ? 1 : 0;
          }
          if (depth >= config_.max_queue_per_client) {
            total_rejected_.fetch_add(1);
            metrics().rejected.add();
            VIRA_WARN("scheduler")
                << "rejecting request " << request.request_id << " from client " << client
                << ": queue depth bound (" << config_.max_queue_per_client << ") reached";
            util::ByteBuffer payload;
            payload.write<std::uint64_t>(request.request_id);
            payload.write_string("admission control: client queue depth bound (" +
                                 std::to_string(config_.max_queue_per_client) + ") reached");
            send_to_client(client, kTagRejected, std::move(payload));
            break;
          }
        }
        PendingRequest entry;
        entry.client = client;
        entry.enqueued_at = util::clock_now();
        entry.queue_span = obs::Tracer::instance().start("sched.queue", request.request_id,
                                                         /*rank=*/0, request.parent_span);
        entry.request = std::move(request);
        pending_.push_back(std::move(entry));
        break;
      }
      case kTagCancel: {
        const auto client_request = msg->payload.read<std::uint64_t>();
        auto key = std::make_pair(client, client_request);
        auto it = by_client_.find(key);
        if (it != by_client_.end()) {
          auto group_it = groups_.find(it->second);
          if (group_it != groups_.end()) {
            // Workers are not interrupted mid-block; we simply stop
            // forwarding (paper Sec. 5: meaningless extractions "can be
            // discarded immediately" from the client's perspective). The
            // cut stream then completes as a failure, never as a success
            // with fragments missing.
            Group& group = group_it->second;
            group.cancelled = true;
            group.failed = true;
            if (group.error.empty()) {
              group.error = "request cancelled";
            }
          }
        } else {
          for (auto qit = pending_.begin(); qit != pending_.end(); ++qit) {
            if (qit->client == client && qit->request.request_id == client_request) {
              // The request never dispatched, but the client still holds a
              // ResultStream on it: close it out with kTagError +
              // kTagComplete (mirroring the in-flight-cancel path in
              // recover_group) — erasing silently left wait() hanging
              // until its timeout.
              fail_pending(*qit, "request cancelled");
              pending_.erase(qit);
              break;
            }
          }
        }
        break;
      }
      default:
        VIRA_WARN("scheduler") << "dropping unknown client tag " << msg->tag;
    }
  }
  // No sleep on an idle pass: poll_workers' first try_recv waits out the
  // poll slice (and a nudge interrupts it), so that is the loop's single
  // idle throttle. An extra sleep here just rations the tick rate — under
  // load it was the difference between draining the worker mailbox and
  // backlogging it by seconds.
  return any;
}

void Scheduler::poll_workers(bool idle) {
  // Drain what is currently available without blocking long — bounded per
  // tick: a pool streaming partials faster than the poll slice otherwise
  // keeps this loop fed indefinitely and starves poll_clients, so submits
  // and cancels would sit unread for the whole duration of a stream.
  const int budget = 16 * (worker_count_ + 1);
  for (int processed = 0; processed < budget; ++processed) {
    // Only the first receive waits out the poll slice (the loop's idle
    // sleep); the rest take what is already queued and no more.
    auto msg = comm_.try_recv(comm::kAnySource, comm::kAnyTag,
                              processed == 0 && idle ? config_.idle_poll
                                                     : std::chrono::milliseconds(0));
    if (!msg) {
      return;
    }
    if (msg->source >= 1 && msg->source <= worker_count_) {
      last_seen_[msg->source] = util::clock_now();
    }
    switch (msg->tag) {
      case kTagStream:
        handle_stream(*msg, /*final=*/false);
        break;
      case kTagFinalResult:
        handle_stream(*msg, /*final=*/true);
        break;
      case kTagWorkerDone:
        handle_done(*msg);
        break;
      case kTagWorkerError:
        handle_error(*msg);
        break;
      case kTagProgressUp:
        handle_progress(*msg);
        break;
      case kTagHeartbeat:
        handle_heartbeat(*msg);
        break;
      case kTagNudge:
        // Self-sent wakeup from Scheduler::nudger(): its only job was to pop
        // the blocking try_recv above. Re-arm the dedup flag; poll_clients
        // runs next iteration of the scheduler loop.
        nudge_pending_->store(false, std::memory_order_release);
        break;
      case kTagDmsRequest:
      case kTagDmsNotify:
        service_dms_message(*data_server_, comm_, *msg, msg->tag == kTagDmsRequest);
        break;
      default:
        VIRA_WARN("scheduler") << "dropping unknown worker tag " << msg->tag << " from "
                               << msg->source;
    }
  }
}

void Scheduler::handle_heartbeat(comm::Message& msg) {
  const auto beat = Heartbeat::deserialize(msg.payload);
  const auto now = util::clock_now();
  last_heartbeat_[msg.source] = now;
  const auto [it, first] = reported_request_.try_emplace(msg.source, beat.current_request);
  if (first || it->second != beat.current_request) {
    it->second = beat.current_request;
    reported_since_[msg.source] = now;
  }
}

bool Scheduler::left_request(int rank, std::uint64_t internal_id,
                             Clock::time_point dispatched_at) const {
  const auto beat = last_heartbeat_.find(rank);
  if (beat == last_heartbeat_.end() || reported_request_.at(rank) == internal_id) {
    return false;
  }
  return beat->second > std::max(dispatched_at, reported_since_.at(rank)) + config_.idle_grace;
}

void Scheduler::handle_stream(comm::Message& msg, bool final) {
  // Peek the (internal) request id without consuming the payload.
  const std::size_t rewind = msg.payload.read_pos();
  FragmentHeader header = FragmentHeader::deserialize(msg.payload);
  msg.payload.seek(rewind);

  auto it = groups_.find(header.request_id);
  if (it == groups_.end()) {
    return;  // stale fragment of a finished/cancelled/abandoned request
  }
  Group& group = it->second;
  if (group.cancelled) {
    return;
  }
  // Exactly-once forwarding: a retried attempt recomputes fragments the
  // previous attempt already delivered, and a faulty transport may duplicate
  // messages outright. (partition, sequence) identifies a fragment across
  // attempts; the set travels with the request through retries.
  const bool fresh =
      group.seen_fragments.insert(fragment_key(header.partition, header.sequence)).second;
  if (config_.fragment_dedup && !fresh) {
    return;
  }
  if (group.first_packet_seconds < 0.0) {
    group.first_packet_seconds = group.total_seconds();
  }
  if (final) {
    group.result_bytes += msg.payload.size();
  } else {
    ++group.partial_packets;
  }
  // Translate the internal id back to the client's own request id: the
  // id is the first u64 of the serialized FragmentHeader.
  const std::uint64_t client_request = group.request.request_id;
  std::memcpy(msg.payload.data(), &client_request, sizeof(client_request));
  if (group.capture) {
    group.capture_bytes += msg.payload.size();
    if (group.capture_bytes > config_.result_cache.max_entry_bytes) {
      // Too big to ever admit; stop copying and free what accumulated.
      group.capture = false;
      group.captured.clear();
      group.captured.shrink_to_fit();
    } else {
      CachedResult::Fragment fragment;
      fragment.final = final;
      fragment.payload = msg.payload;  // copy; the original streams on
      group.captured.push_back(std::move(fragment));
    }
  }
  metrics().fragments.add();
  auto send_span = obs::Tracer::instance().start("link.send", client_request, /*rank=*/0,
                                                 group.span.context().span_id);
  if (send_span.active()) {
    send_span.arg("bytes", static_cast<std::int64_t>(msg.payload.size()));
    send_span.arg("partition", header.partition);
  }
  send_to_client(group.client, final ? kTagFinal : kTagPartial, std::move(msg.payload),
                 client_request, send_span.context().span_id);
  // A fragment its sender's done report overtook may be the last one due.
  if (group_complete(group)) {
    finish_group(header.request_id);
  }
}

void Scheduler::handle_done(comm::Message& msg) {
  auto report = WorkerReport::deserialize(msg.payload);
  auto it = groups_.find(report.request_id);
  if (it == groups_.end()) {
    // Straggler of an abandoned attempt (or a report that outlived its
    // group): the worker is idle again either way.
    VIRA_DEBUG("scheduler") << "done report for unknown request " << report.request_id
                            << " from rank " << report.rank;
    if (!dead_.count(report.rank)) {
      free_.insert(report.rank);
    }
    return;
  }
  Group& group = it->second;
  if (!dead_.count(report.rank)) {
    free_.insert(report.rank);
  }
  if (!group.done_ranks.insert(report.rank).second) {
    return;  // a duplicated report counts once
  }
  const auto slot = std::find(group.ranks.begin(), group.ranks.end(), report.rank);
  group.announced[static_cast<std::int32_t>(slot - group.ranks.begin())] = report.fragments;
  group.last_report_at = util::clock_now();
  if (!report.success) {
    group.failed = true;
    if (group.error.empty()) {
      group.error = report.error;
    }
  }
  for (const auto& [phase, seconds] : report.phase_seconds) {
    group.phase_seconds[phase] += seconds;
  }
  if (group_complete(group)) {
    finish_group(report.request_id);
  }
}

bool Scheduler::group_complete(const Group& group) const {
  if (group.done_ranks.size() < group.ranks.size()) {
    return false;
  }
  if (group.failed || group.cancelled) {
    return true;
  }
  for (const auto& [partition, count] : group.announced) {
    for (std::uint32_t sequence = 0; sequence < count; ++sequence) {
      if (group.seen_fragments.count(fragment_key(partition, sequence)) == 0) {
        return false;
      }
    }
  }
  return true;
}

void Scheduler::handle_error(comm::Message& msg) {
  const auto request_id = msg.payload.read<std::uint64_t>();
  auto it = groups_.find(request_id);
  if (it != groups_.end()) {
    it->second.failed = true;
    it->second.error = msg.payload.read_string();
  }
}

void Scheduler::handle_progress(comm::Message& msg) {
  const auto request_id = msg.payload.read<std::uint64_t>();
  const double fraction = msg.payload.read<double>();
  auto it = groups_.find(request_id);
  if (it == groups_.end() || it->second.cancelled) {
    return;
  }
  util::ByteBuffer payload;
  payload.write<std::uint64_t>(it->second.request.request_id);
  payload.write<double>(fraction);
  send_to_client(it->second.client, kTagProgress, std::move(payload));
}

void Scheduler::check_liveness() {
  const auto now = util::clock_now();

  // (1) Rank death: nothing heard for death_timeout. Heartbeats flow every
  // few tens of milliseconds from a dedicated worker thread, so a silent
  // rank is dead (killed, wedged, or unreachable), not merely busy.
  for (int rank = 1; rank <= worker_count_; ++rank) {
    if (dead_.count(rank)) {
      continue;
    }
    if (now - last_seen_[rank] > config_.death_timeout) {
      dead_.insert(rank);
      free_.erase(rank);
      // Its proxy (rank - 1) must stop being named as a peer-transfer holder.
      data_server_->forget_proxy(rank - 1);
      lost_workers_.fetch_add(1);
      metrics().lost_workers.add();
      VIRA_WARN("scheduler") << "worker rank " << rank << " declared dead (silent for "
                             << config_.death_timeout.count() << "ms); "
                             << (worker_count_ - dead_.size()) << " workers remain";
    }
  }

  // (2) Stale executions. A rank whose heartbeats name an internal id that
  // no longer exists is grinding on an abandoned attempt — its
  // kTagGroupAbort was lost in transit (lossy transports drop control
  // messages like any other). Without a re-send the rank never unblocks:
  // its heartbeats keep it "alive" forever, it never reports done, and the
  // pool is one worker short for good. Aborts are idempotent, so re-send
  // (rate-limited by idle_grace) until the rank moves on.
  for (const auto& [rank, executing] : reported_request_) {
    if (executing == 0 || dead_.count(rank) || groups_.count(executing) > 0) {
      continue;
    }
    auto& last_sent = last_stale_abort_[rank];
    if (now - last_sent < config_.idle_grace) {
      continue;
    }
    last_sent = now;
    util::ByteBuffer abort_payload;
    abort_payload.write<std::uint64_t>(executing);
    comm_.send(rank, kTagGroupAbort, std::move(abort_payload));
    VIRA_DEBUG("scheduler") << "re-sending abort for abandoned request " << executing
                            << " to rank " << rank;
  }

  // (2b) Pool reconciliation. Done reports are at-most-once on a lossy
  // transport: a worker whose kTagWorkerDone was dropped goes idle
  // (heartbeats name request 0) without ever being returned to the pool,
  // and no later message will free it. A rank that reports idle and is not
  // a member of any live group is certainly free; re-inserting is
  // idempotent.
  std::set<int> busy_ranks;
  for (const auto& [internal_id, group] : groups_) {
    for (const int rank : group.ranks) {
      if (!group.done_ranks.count(rank)) {
        busy_ranks.insert(rank);
      }
    }
  }
  for (const auto& [rank, executing] : reported_request_) {
    if (executing == 0 && !dead_.count(rank) && !busy_ranks.count(rank) &&
        !free_.count(rank)) {
      VIRA_DEBUG("scheduler") << "rank " << rank
                              << " reports idle with no live group; returning it to the pool";
      free_.insert(rank);
    }
  }

  // (3) Per-group health. A group is unrecoverable in place when a member
  // is dead, when a member's recent heartbeats name a different request
  // (its execute order or its done report was lost in transit), or when
  // fragments its members announced never arrived (lost in transit).
  std::vector<std::pair<std::uint64_t, std::string>> to_recover;
  for (auto& [internal_id, group] : groups_) {
    std::string reason;
    if (group.done_ranks.size() == group.ranks.size() &&
        now - group.last_report_at > config_.idle_grace) {
      reason = "fragments missing after every member reported done";
    }
    for (const int rank : group.ranks) {
      if (group.done_ranks.count(rank)) {
        continue;
      }
      if (dead_.count(rank)) {
        reason = "member rank " + std::to_string(rank) + " died";
        break;
      }
      if (left_request(rank, internal_id, group.dispatched_at)) {
        reason = "member rank " + std::to_string(rank) + " is not executing the request";
        break;
      }
    }
    if (reason.empty() && config_.request_timeout.count() > 0 &&
        now - group.dispatched_at > config_.request_timeout) {
      reason = "attempt exceeded request_timeout";
    }
    if (!reason.empty()) {
      to_recover.emplace_back(internal_id, std::move(reason));
    }
  }
  for (auto& [internal_id, reason] : to_recover) {
    recover_group(internal_id, reason);
  }
}

void Scheduler::recover_group(std::uint64_t internal_id, const std::string& reason) {
  auto it = groups_.find(internal_id);
  if (it == groups_.end()) {
    return;
  }
  Group& group = it->second;
  VIRA_WARN("scheduler") << "abandoning attempt " << group.attempt + 1 << " of request "
                         << group.request.request_id << " (client " << group.client
                         << "): " << reason;

  // Unstick the survivors: an alive member may be blocked in a collective
  // on the lost one. The abort flag makes its next bounded wait throw
  // CommandAborted; its done report then arrives for an unknown request and
  // frees it. Members whose heartbeats already say they are NOT executing
  // this request (lost order / already finished) return to the pool now —
  // no done report is coming from them.
  for (const int rank : group.ranks) {
    if (group.done_ranks.count(rank) || dead_.count(rank)) {
      continue;
    }
    util::ByteBuffer abort_payload;
    abort_payload.write<std::uint64_t>(internal_id);
    comm_.send(rank, kTagGroupAbort, std::move(abort_payload));
    if (left_request(rank, internal_id, group.dispatched_at)) {
      free_.insert(rank);
    }
  }

  by_client_.erase(std::make_pair(group.client, group.request.request_id));

  if (group.cancelled) {
    // The client walked away from this request already; don't spend a
    // retry on it, just close it out — kTagError first so the failed
    // completion is never silent (same contract as every other failure
    // path; the DST terminal oracle checks it).
    group.failed = true;
    group.error = "request cancelled; " + reason;
    CommandStats stats;
    stats.request_id = group.request.request_id;
    stats.success = false;
    stats.error = group.error;
    stats.total_runtime = group.total_seconds();
    stats.workers = group.width;
    stats.requested_workers = group.requested_workers > 0 ? group.requested_workers : group.width;
    stats.retries = static_cast<std::uint32_t>(group.attempt);
    util::ByteBuffer error_payload;
    error_payload.write<std::uint64_t>(group.request.request_id);
    error_payload.write_string(group.error);
    send_to_client(group.client, kTagError, std::move(error_payload));
    util::ByteBuffer payload;
    stats.serialize(payload);
    send_to_client(group.client, kTagComplete, std::move(payload));
    groups_.erase(it);
    return;
  }

  if (group.attempt >= config_.max_retries) {
    group.failed = true;
    group.error = "request failed after " + std::to_string(group.attempt + 1) +
                  " attempts: " + reason;
    // finish_group needs pending bookkeeping ignored; report directly.
    CommandStats stats;
    stats.request_id = group.request.request_id;
    stats.success = false;
    stats.error = group.error;
    stats.total_runtime = group.total_seconds();
    stats.latency = group.first_packet_seconds >= 0.0 ? group.first_packet_seconds
                                                      : stats.total_runtime;
    stats.partial_packets = group.partial_packets;
    stats.result_bytes = group.result_bytes;
    stats.workers = group.width;
    stats.requested_workers = group.requested_workers > 0 ? group.requested_workers : group.width;
    stats.retries = static_cast<std::uint32_t>(group.attempt);
    stats.phase_seconds = group.phase_seconds;
    util::ByteBuffer error_payload;
    error_payload.write<std::uint64_t>(group.request.request_id);
    error_payload.write_string(group.error);
    send_to_client(group.client, kTagError, std::move(error_payload));
    util::ByteBuffer payload;
    stats.serialize(payload);
    send_to_client(group.client, kTagComplete, std::move(payload));
    groups_.erase(it);
    return;
  }

  total_retries_.fetch_add(1);
  metrics().retries.add();

  PendingRequest retry;
  retry.client = group.client;
  retry.attempt = group.attempt + 1;
  // The group width is pinned across retries: partition k of a narrower or
  // wider group would cover a different share of the data and break the
  // fragment identity the dedup set relies on.
  retry.width = group.width;
  retry.requested_workers = group.requested_workers;
  retry.enqueued_at = util::clock_now();
  retry.queue_span = obs::Tracer::instance().start("sched.queue", group.request.request_id,
                                                   /*rank=*/0, group.request.parent_span);
  retry.not_before =
      util::clock_now() + config_.retry_backoff * (1 << std::min(group.attempt, 16));
  retry.elapsed_before = group.total_seconds();
  retry.first_packet_seconds = group.first_packet_seconds;
  retry.partial_packets = group.partial_packets;
  retry.result_bytes = group.result_bytes;
  retry.phase_seconds = std::move(group.phase_seconds);
  retry.seen_fragments = std::move(group.seen_fragments);
  retry.request = std::move(group.request);

  // Tell the client the request is running degraded (attempt count so far).
  util::ByteBuffer degraded;
  degraded.write<std::uint64_t>(retry.request.request_id);
  degraded.write<std::uint32_t>(static_cast<std::uint32_t>(retry.attempt));
  send_to_client(retry.client, kTagDegraded, std::move(degraded));

  groups_.erase(it);
  // Head of the queue: a wounded request should not wait behind new work.
  pending_.push_front(std::move(retry));
}

void Scheduler::finish_group(std::uint64_t internal_id) {
  auto it = groups_.find(internal_id);
  Group& group = it->second;

  CommandStats stats;
  stats.request_id = group.request.request_id;
  stats.success = !group.failed;
  stats.error = group.error;
  stats.total_runtime = group.total_seconds();
  stats.latency = group.first_packet_seconds >= 0.0 ? group.first_packet_seconds
                                                    : stats.total_runtime;
  stats.partial_packets = group.partial_packets;
  stats.result_bytes = group.result_bytes;
  stats.workers = static_cast<int>(group.ranks.size());
  stats.requested_workers =
      group.requested_workers > 0 ? group.requested_workers : stats.workers;
  stats.retries = static_cast<std::uint32_t>(group.attempt);
  stats.phase_seconds = group.phase_seconds;
  if (result_cache_) {
    stats.data_version = group.cache_version;
  }

  // Admission: only a fully successful, non-degraded, non-cancelled
  // first-attempt stream is memoized, and only while the dataset version
  // it was keyed under is still current. After a mid-flight version bump
  // the entry's key is unreachable anyway; dropping it beats storing it.
  if (result_cache_ && group.capture && !group.failed && !group.cancelled &&
      !group.reaped && group.attempt == 0 &&
      group.cache_version == current_data_version()) {
    CachedResult entry;
    entry.key = group.cache_key;
    entry.data_version = group.cache_version;
    entry.workers = stats.workers;
    entry.requested_workers = stats.requested_workers;
    entry.partial_packets = group.partial_packets;
    entry.result_bytes = group.result_bytes;
    entry.compute_seconds = stats.total_runtime;
    entry.fragments = std::move(group.captured);
    result_cache_->insert(std::move(entry));
  }

  if (group.failed) {
    util::ByteBuffer error_payload;
    error_payload.write<std::uint64_t>(group.request.request_id);
    error_payload.write_string(group.error);
    send_to_client(group.client, kTagError, std::move(error_payload),
                   group.request.request_id, group.span.context().span_id);
  }
  util::ByteBuffer payload;
  stats.serialize(payload);
  send_to_client(group.client, kTagComplete, std::move(payload),
                 group.request.request_id, group.span.context().span_id);

  metrics().requests.add();
  metrics().runtime.observe(stats.total_runtime);
  metrics().latency.observe(stats.latency);
  if (stats.degraded()) {
    metrics().degraded.add();
  }
  if (group.failed) {
    metrics().failed.add();
  }

  VIRA_DEBUG("scheduler") << "request " << group.request.request_id << " (client "
                          << group.client << ") finished in " << stats.total_runtime
                          << "s (latency " << stats.latency << "s, retries "
                          << stats.retries << ")";
  by_client_.erase(std::make_pair(group.client, group.request.request_id));
  groups_.erase(it);
}

void Scheduler::fail_pending(PendingRequest& entry, const std::string& reason) {
  VIRA_WARN("scheduler") << "request " << entry.request.request_id << " (client "
                         << entry.client << ") failed: " << reason;
  CommandStats stats;
  stats.request_id = entry.request.request_id;
  stats.success = false;
  stats.error = reason;
  stats.total_runtime = entry.elapsed_before;
  stats.latency =
      entry.first_packet_seconds >= 0.0 ? entry.first_packet_seconds : entry.elapsed_before;
  stats.partial_packets = entry.partial_packets;
  stats.result_bytes = entry.result_bytes;
  stats.workers = entry.width;
  stats.requested_workers = entry.requested_workers > 0 ? entry.requested_workers : entry.width;
  stats.retries = static_cast<std::uint32_t>(entry.attempt);
  stats.phase_seconds = entry.phase_seconds;
  util::ByteBuffer error_payload;
  error_payload.write<std::uint64_t>(entry.request.request_id);
  error_payload.write_string(reason);
  send_to_client(entry.client, kTagError, std::move(error_payload));
  util::ByteBuffer payload;
  stats.serialize(payload);
  send_to_client(entry.client, kTagComplete, std::move(payload));
}

bool Scheduler::client_link_closed(std::size_t client) const {
  std::lock_guard<std::mutex> lock(client_mutex_);
  if (client >= clients_.size()) {
    return true;
  }
  const auto& link = clients_[client];
  return !link || link->closed();
}

int Scheduler::requested_width(const PendingRequest& entry, int alive) const {
  int requested = static_cast<int>(entry.request.params.get_int("workers", 0));
  if (requested <= 0) {
    requested = alive;  // the seed's derived default: the whole pool
  }
  return requested;
}

/// Queue-wait accounting at the moment an entry leaves pending_ for a work
/// group: histogram + per-client gauge + the sched.queue span closes.
void Scheduler::note_dispatch(PendingRequest& entry) {
  const double waited =
      std::chrono::duration<double>(util::clock_now() - entry.enqueued_at).count();
  metrics().wait.observe(waited);
  client_wait_gauge(entry.client).set(static_cast<std::int64_t>(waited * 1000.0));
  entry.queue_span.end();
}

/// Drops queued entries and abandons in-flight groups whose client link has
/// closed: nobody is left to read the results, so computing them only
/// steals workers from live clients. In-flight members get a group abort
/// (idempotent; their done reports free them through handle_done), and the
/// eventual finish_group sends fall into send_to_client's closed-link drop.
void Scheduler::reap_closed_clients() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (client_link_closed(it->client)) {
      VIRA_WARN("scheduler") << "reaping queued request " << it->request.request_id
                             << ": client " << it->client << " link closed";
      total_reaped_.fetch_add(1);
      metrics().reaped.add();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [internal_id, group] : groups_) {
    if (group.reaped || group.cancelled || !client_link_closed(group.client)) {
      continue;
    }
    VIRA_WARN("scheduler") << "reaping in-flight request " << group.request.request_id
                           << ": client " << group.client << " link closed";
    group.cancelled = true;
    group.reaped = true;
    total_reaped_.fetch_add(1);
    metrics().reaped.add();
    for (const int rank : group.ranks) {
      if (group.done_ranks.count(rank) || dead_.count(rank)) {
        continue;
      }
      util::ByteBuffer abort_payload;
      abort_payload.write<std::uint64_t>(internal_id);
      comm_.send(rank, kTagGroupAbort, std::move(abort_payload));
    }
  }
}

std::uint64_t Scheduler::current_data_version() const {
  return data_server_->names().data_version();
}

/// Keys every unchecked attempt-0 entry once and serves cache hits without
/// forming a work group. Retries are exempt twice over: their fragment
/// stream is already half-delivered (replaying from zero would duplicate),
/// and their pinned width may differ from the recorded run.
void Scheduler::serve_cache_hits() {
  if (!result_cache_) {
    return;
  }
  const std::uint64_t version = current_data_version();
  if (last_data_version_ != 0 && version != last_data_version_) {
    // Dataset changed: entries under older versions are unreachable
    // through the keys already; reclaim their bytes eagerly.
    result_cache_->invalidate_all();
    VIRA_INFO("scheduler") << "dataset version " << version
                           << ": result cache invalidated";
  }
  last_data_version_ = version;

  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingRequest& entry = *it;
    if (entry.attempt != 0) {
      ++it;
      continue;
    }
    if (!entry.cache_checked) {
      entry.cache_checked = true;
      entry.cache_key =
          ResultCache::make_key(entry.request.command, entry.request.params, version);
      entry.cache_version = version;
    }
    // Re-probe queued entries every pass, not just on arrival: when many
    // clients submit the same extraction at once (the paper's premise),
    // the duplicates are all queued before the first completion lands in
    // the cache. A once-per-entry lookup would compute every one of them;
    // re-probing turns everything still queued at that point into replays.
    auto hit = result_cache_->lookup(entry.cache_key);
    if (!hit) {
      ++it;
      continue;
    }
    note_dispatch(entry);
    replay_cached(entry, *hit);
    it = pending_.erase(it);
  }
}

/// Streams a memoized result back: the recorded kTagPartial/kTagFinal
/// payloads verbatim (re-addressed to this client's request id), then a
/// synthesized kTagComplete with cache_hit set. Mirrors the normal
/// delivery path's metrics and span tree (a synthetic sched.request span
/// with a result_cache.lookup child) so traces and dashboards see one
/// consistent shape either way.
void Scheduler::replay_cached(PendingRequest& entry, const CachedResult& hit) {
  cache_hits_.fetch_add(1);
  auto span = obs::Tracer::instance().start("sched.request", entry.request.request_id,
                                            /*rank=*/0, entry.request.parent_span);
  if (span.active()) {
    span.arg("cache_hit", 1);
    span.arg("workers", static_cast<std::int64_t>(hit.workers));
  }
  {
    auto lookup = obs::Tracer::instance().start("result_cache.lookup",
                                                entry.request.request_id, /*rank=*/0,
                                                span.context().span_id);
    if (lookup.active()) {
      lookup.arg("hit", 1);
    }
  }

  const std::uint64_t client_request = entry.request.request_id;
  for (const auto& fragment : hit.fragments) {
    util::ByteBuffer payload = fragment.payload;
    // Re-address the recorded frame: the client's request id is the first
    // u64 of the serialized FragmentHeader (same rewrite handle_stream
    // uses on live traffic).
    std::memcpy(payload.data(), &client_request, sizeof(client_request));
    metrics().fragments.add();
    auto send_span = obs::Tracer::instance().start("link.send", client_request, /*rank=*/0,
                                                   span.context().span_id);
    if (send_span.active()) {
      send_span.arg("bytes", static_cast<std::int64_t>(payload.size()));
    }
    send_to_client(entry.client, fragment.final ? kTagFinal : kTagPartial,
                   std::move(payload), client_request, send_span.context().span_id);
  }

  CommandStats stats;
  stats.request_id = client_request;
  stats.success = true;
  const double waited =
      std::chrono::duration<double>(util::clock_now() - entry.enqueued_at).count();
  stats.total_runtime = waited;
  stats.latency = waited;
  stats.partial_packets = hit.partial_packets;
  stats.result_bytes = hit.result_bytes;
  stats.workers = hit.workers;
  stats.requested_workers = hit.requested_workers;
  stats.retries = 0;
  stats.cache_hit = true;
  stats.data_version = hit.data_version;
  util::ByteBuffer payload;
  stats.serialize(payload);
  send_to_client(entry.client, kTagComplete, std::move(payload));

  metrics().requests.add();
  metrics().runtime.observe(stats.total_runtime);
  metrics().latency.observe(stats.latency);
  VIRA_DEBUG("scheduler") << "request " << client_request << " (client " << entry.client
                          << ") served from result cache (" << hit.fragments.size()
                          << " fragments, " << hit.result_bytes << " bytes)";
}

void Scheduler::dispatch_pending() {
  reap_closed_clients();
  serve_cache_hits();
  if (config_.policy == SchedPolicy::kFifo) {
    dispatch_fifo();
  } else {
    dispatch_fair_share();
  }
  metrics().queue_depth.set(static_cast<std::int64_t>(pending_.size()));
}

/// The seed's strict-arrival-order loop, kept reachable as
/// SchedPolicy::kFifo (the bench baseline and the conservative fallback).
void Scheduler::dispatch_fifo() {
  while (!pending_.empty()) {
    PendingRequest& head = pending_.front();
    if (head.not_before > util::clock_now()) {
      return;  // backoff gate; retries sit at the head, so wait it out
    }
    const int alive = worker_count_ - static_cast<int>(dead_.size());
    const int requested = head.width > 0 ? head.requested_workers : requested_width(head, alive);
    int wanted = head.width;
    if (wanted <= 0) {
      wanted = requested > alive ? alive : requested;
    }
    if (wanted > alive || alive == 0) {
      // A retry's width is pinned (see recover_group); if the pool shrank
      // below it the request can never run faithfully again.
      fail_pending(head, "not enough workers alive (" + std::to_string(alive) + " of " +
                             std::to_string(wanted) + " required)");
      pending_.pop_front();
      continue;
    }
    if (static_cast<int>(free_.size()) < wanted) {
      return;  // wait for workers to free up
    }
    PendingRequest entry = std::move(pending_.front());
    pending_.pop_front();
    entry.width = wanted;
    entry.requested_workers = requested;
    note_dispatch(entry);
    start_group(std::move(entry));
  }
}

/// Per-client deficit-round-robin with molding, backfilling, and aging.
///
/// Each pass considers only the oldest queued entry of every client (one
/// client's own requests never reorder), molds derived widths to
/// ceil(alive / active clients) so K clients share the pool, and dispatches
/// the fitting candidate whose client has received the least width-weighted
/// service. Dispatching past a ready-but-blocked head counts against the
/// head's aging budget; once `max_head_bypass` is exhausted backfilling
/// pauses and the head gets the next workers that free up — the
/// no-starvation bound the DST oracle checks.
void Scheduler::dispatch_fair_share() {
  while (!pending_.empty()) {
    const auto now = util::clock_now();
    const int alive = worker_count_ - static_cast<int>(dead_.size());

    // Entries that can never run again fail now, wherever they queue:
    // a pinned retry width above the shrunken pool waits for nothing.
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (alive == 0 || it->width > alive) {
        fail_pending(*it, "not enough workers alive (" + std::to_string(alive) + " of " +
                              std::to_string(it->width > 0 ? it->width : 1) + " required)");
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (pending_.empty() || alive == 0) {
      return;
    }

    // Clients with outstanding work (queued or running) define the fair
    // share derived widths are molded to. Ceiling keeps the split
    // work-conserving when the pool does not divide evenly.
    std::set<std::size_t> active_clients;
    for (const auto& entry : pending_) {
      active_clients.insert(entry.client);
    }
    for (const auto& [internal_id, group] : groups_) {
      active_clients.insert(group.client);
    }
    const int client_count = static_cast<int>(active_clients.size());
    const int share = std::max(1, (alive + client_count - 1) / client_count);

    // Deficit bookkeeping: drop departed clients; a (re)joining client
    // starts level with the least-served active client, not at zero, so
    // accumulated history cannot starve long-running peers.
    std::uint64_t floor_service = ~0ull;
    for (auto it = client_service_.begin(); it != client_service_.end();) {
      if (!active_clients.count(it->first)) {
        it = client_service_.erase(it);
      } else {
        floor_service = std::min(floor_service, it->second);
        ++it;
      }
    }
    if (floor_service == ~0ull) {
      floor_service = 0;
    }
    for (const std::size_t client : active_clients) {
      client_service_.emplace(client, floor_service);
    }

    const auto molded_width = [&](const PendingRequest& entry) {
      if (entry.width > 0) {
        return entry.width;  // pinned retry width: never remolded
      }
      return std::max(1, std::min(requested_width(entry, alive), share));
    };

    // Candidates: each client's first queued entry past its backoff gate.
    std::map<std::size_t, std::size_t> first_of_client;  // client -> index
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      first_of_client.emplace(pending_[i].client, i);
    }

    PendingRequest& head = pending_.front();
    const bool head_ready = head.not_before <= now;
    const bool head_aged = head_ready && head.bypassed >= config_.max_head_bypass;

    std::size_t chosen = pending_.size();
    std::uint64_t chosen_service = 0;
    for (const auto& [client, index] : first_of_client) {
      if (head_aged && index != 0) {
        continue;  // aged head: strict priority, no further bypassing
      }
      PendingRequest& entry = pending_[index];
      if (entry.not_before > now) {
        continue;
      }
      if (molded_width(entry) > static_cast<int>(free_.size())) {
        continue;
      }
      const std::uint64_t service = client_service_[client];
      if (chosen == pending_.size() || service < chosen_service ||
          (service == chosen_service && index < chosen)) {
        chosen = index;
        chosen_service = service;
      }
    }
    if (chosen == pending_.size()) {
      return;  // nothing fits right now; wait for workers to free up
    }

    if (chosen != 0 && head_ready) {
      // A backfill jumped the ready head; charge its aging budget.
      ++head.bypassed;
      total_backfills_.fetch_add(1);
      metrics().backfills.add();
      int seen = max_bypass_observed_.load();
      while (head.bypassed > seen &&
             !max_bypass_observed_.compare_exchange_weak(seen, head.bypassed)) {
      }
    }

    PendingRequest entry = std::move(pending_[chosen]);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(chosen));
    if (entry.width <= 0) {
      const int requested = requested_width(entry, alive);
      const int width = std::max(1, std::min(requested, share));
      entry.requested_workers = requested;
      entry.width = width;
      if (width < requested) {
        metrics().molded.add();
      }
    }
    client_service_[entry.client] += static_cast<std::uint64_t>(entry.width);
    note_dispatch(entry);
    start_group(std::move(entry));
  }
}

void Scheduler::start_group(PendingRequest entry) {
  const std::uint64_t internal_id = next_internal_id_++;

  Group group;
  group.client = entry.client;
  group.width = entry.width;
  group.requested_workers = entry.requested_workers;
  group.attempt = entry.attempt;
  group.elapsed_before = entry.elapsed_before;
  group.first_packet_seconds = entry.first_packet_seconds;
  group.partial_packets = entry.partial_packets;
  group.result_bytes = entry.result_bytes;
  group.phase_seconds = std::move(entry.phase_seconds);
  group.seen_fragments = std::move(entry.seen_fragments);
  group.cache_key = std::move(entry.cache_key);
  group.cache_version = entry.cache_version;
  // Capture for memoization: first attempt only (a retry's stream is
  // already half-delivered) and only with dedup on (duplicates in the
  // recording would replay as duplicates).
  group.capture = result_cache_ != nullptr && entry.attempt == 0 &&
                  config_.fragment_dedup && !group.cache_key.empty();
  group.request = std::move(entry.request);
  for (auto it = free_.begin();
       it != free_.end() && static_cast<int>(group.ranks.size()) < entry.width;) {
    group.ranks.push_back(*it);
    it = free_.erase(it);
  }
  group.master = group.ranks.front();
  group.timer.restart();
  group.dispatched_at = util::clock_now();

  // One span per attempt, parented under the client's submit span; its id
  // travels in the execute order so every worker span stitches under it.
  group.span = obs::Tracer::instance().start("sched.request", group.request.request_id,
                                             /*rank=*/0, group.request.parent_span);
  if (group.span.active()) {
    group.span.arg("attempt", group.attempt + 1);
    group.span.arg("workers", static_cast<std::int64_t>(group.ranks.size()));
    group.span.arg("requested_workers", static_cast<std::int64_t>(group.requested_workers));
  }
  if (result_cache_ && group.attempt == 0) {
    // The (missed) lookup happened in serve_cache_hits before any
    // sched.request span existed; record it here under the attempt's span
    // so the trace shows the decision point (check_trace.py enforces the
    // result_cache.lookup → sched.request nesting).
    auto lookup = obs::Tracer::instance().start("result_cache.lookup",
                                                group.request.request_id, /*rank=*/0,
                                                group.span.context().span_id);
    if (lookup.active()) {
      lookup.arg("hit", 0);
    }
  }

  ExecuteOrder order;
  order.request_id = internal_id;  // workers talk in internal ids
  order.command = group.request.command;
  order.params = group.request.params;
  order.group_ranks.assign(group.ranks.begin(), group.ranks.end());
  order.master_rank = group.master;
  order.parent_span = group.span.context().span_id;
  order.trace_request = group.request.request_id;

  VIRA_DEBUG("scheduler") << "request " << group.request.request_id << " (client "
                          << group.client << ") -> group of " << group.ranks.size()
                          << " workers (master " << group.master << ", attempt "
                          << group.attempt + 1 << ")";

  for (const int rank : group.ranks) {
    util::ByteBuffer payload;
    order.serialize(payload);
    comm_.send(rank, kTagExecute, std::move(payload));
  }
  by_client_[std::make_pair(group.client, group.request.request_id)] = internal_id;
  groups_.emplace(internal_id, std::move(group));
}

}  // namespace vira::core
