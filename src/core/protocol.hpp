#pragma once

/// \file protocol.hpp
/// Wire protocol of the Viracocha runtime (paper Fig. 2).
///
/// Client ↔ scheduler messages travel over a comm::ClientLink (TCP/IP or
/// in-process); scheduler ↔ worker messages over the rank transport (the
/// MPI role). Tags identify message kinds; payload layouts are defined by
/// the serialize/deserialize pairs below.

#include <cstdint>
#include <map>
#include <string>

#include "util/byte_buffer.hpp"
#include "util/param_list.hpp"

namespace vira::core {

/// Client link tags (client ↔ scheduler).
enum ClientTag : int {
  kTagSubmit = 1,     ///< client → scheduler: CommandRequest
  kTagCancel = 2,     ///< client → scheduler: request_id
  kTagPartial = 10,   ///< scheduler → client: streamed fragment
  kTagFinal = 11,     ///< scheduler → client: merged final result
  kTagComplete = 12,  ///< scheduler → client: CommandStats, command finished
  kTagError = 13,     ///< scheduler → client: error text
  kTagProgress = 14,  ///< scheduler → client: fraction in [0,1]
  kTagDegraded = 15,  ///< scheduler → client: request degraded (retry count)
  kTagRejected = 16,  ///< scheduler → client: admission control refused the
                      ///< submission (request_id + reason); terminal — the
                      ///< request was never queued and no kTagComplete follows
  // Tags 17 (hello) and 18 (hello ack) belong to the link-level versioning
  // handshake and are defined next to the framing in comm/client_link.hpp
  // (comm::kTagHello / comm::kTagHelloAck): net::EventLoop answers them
  // without scheduler involvement.
};

/// Rank transport tags (scheduler ↔ workers). User commands use tags >= 0
/// for intra-group traffic; runtime control tags live here.
enum WorkerTag : int {
  kTagExecute = 1000,     ///< scheduler → worker: ExecuteOrder
  kTagWorkerDone = 1001,  ///< worker → scheduler: WorkerReport
  kTagStream = 1002,      ///< worker → scheduler: fragment to forward
  kTagFinalResult = 1003, ///< master worker → scheduler: merged result
  kTagShutdown = 1005,    ///< scheduler → worker: exit the loop
  kTagProgressUp = 1006,  ///< worker → scheduler: progress fraction
  kTagHeartbeat = 1007,   ///< worker → scheduler: Heartbeat (liveness)
  kTagGroupAbort = 1008,  ///< scheduler → worker: abandon the named request
  kTagNudge = 1009,       ///< scheduler → itself: a client link turned
                          ///< readable (event-loop wakeup; empty payload).
                          ///< Pops the scheduler out of its idle poll wait
                          ///< so request pickup is event-driven.
};

/// Periodic worker → scheduler liveness beacon. Sent from a dedicated
/// thread so a worker deep inside a long command still proves it is alive;
/// `current_request` (0 = idle) lets the scheduler detect lost execute
/// orders and lost done reports, not just dead processes.
struct Heartbeat {
  std::int32_t rank = -1;
  std::uint64_t current_request = 0;  ///< internal id being executed, 0 = idle

  void serialize(util::ByteBuffer& out) const {
    out.write<std::int32_t>(rank);
    out.write<std::uint64_t>(current_request);
  }
  static Heartbeat deserialize(util::ByteBuffer& in) {
    Heartbeat beat;
    beat.rank = in.read<std::int32_t>();
    beat.current_request = in.read<std::uint64_t>();
    return beat;
  }
};

/// A client's command submission.
struct CommandRequest {
  std::uint64_t request_id = 0;
  std::string command;
  util::ParamList params;
  /// obs trace context: span id of the client's "client.request" span
  /// (0 = untraced). The scheduler parents its per-attempt span under it
  /// so the exported trace stitches client → scheduler → workers.
  std::uint64_t parent_span = 0;

  void serialize(util::ByteBuffer& out) const {
    out.write<std::uint64_t>(request_id);
    out.write_string(command);
    params.serialize(out);
    out.write<std::uint64_t>(parent_span);
  }
  static CommandRequest deserialize(util::ByteBuffer& in) {
    CommandRequest request;
    request.request_id = in.read<std::uint64_t>();
    request.command = in.read_string();
    request.params = util::ParamList::deserialize(in);
    request.parent_span = in.read<std::uint64_t>();
    return request;
  }
};

/// Scheduler → worker execution order.
struct ExecuteOrder {
  std::uint64_t request_id = 0;
  std::string command;
  util::ParamList params;
  std::vector<std::int32_t> group_ranks;  ///< all ranks of the work group
  std::int32_t master_rank = -1;          ///< collects the final result
  /// obs trace context: span id of the scheduler's "sched.request" attempt
  /// span (0 = untraced) — the worker's "worker.execute" span parents
  /// under it, so a retried attempt shows up as a second span tree.
  std::uint64_t parent_span = 0;
  /// obs trace context: the client-visible request id (request_id above is
  /// the scheduler's internal id, which changes across retries). All spans
  /// of one logical request annotate this id.
  std::uint64_t trace_request = 0;

  void serialize(util::ByteBuffer& out) const {
    out.write<std::uint64_t>(request_id);
    out.write_string(command);
    params.serialize(out);
    out.write_vector(group_ranks);
    out.write<std::int32_t>(master_rank);
    out.write<std::uint64_t>(parent_span);
    out.write<std::uint64_t>(trace_request);
  }
  static ExecuteOrder deserialize(util::ByteBuffer& in) {
    ExecuteOrder order;
    order.request_id = in.read<std::uint64_t>();
    order.command = in.read_string();
    order.params = util::ParamList::deserialize(in);
    order.group_ranks = in.read_vector<std::int32_t>();
    order.master_rank = in.read<std::int32_t>();
    order.parent_span = in.read<std::uint64_t>();
    order.trace_request = in.read<std::uint64_t>();
    return order;
  }
};

/// Worker → scheduler completion report (phase seconds for Fig. 15).
struct WorkerReport {
  std::uint64_t request_id = 0;
  std::int32_t rank = -1;
  bool success = true;
  std::string error;
  std::map<std::string, double> phase_seconds;
  /// Fragments this rank streamed (its final sequence): the scheduler
  /// finishes a group only once it has forwarded every one of them.
  std::uint32_t fragments = 0;

  void serialize(util::ByteBuffer& out) const {
    out.write<std::uint64_t>(request_id);
    out.write<std::int32_t>(rank);
    out.write<std::uint8_t>(success ? 1 : 0);
    out.write_string(error);
    out.write<std::uint32_t>(static_cast<std::uint32_t>(phase_seconds.size()));
    for (const auto& [phase, seconds] : phase_seconds) {
      out.write_string(phase);
      out.write<double>(seconds);
    }
    out.write<std::uint32_t>(fragments);
  }
  static WorkerReport deserialize(util::ByteBuffer& in) {
    WorkerReport report;
    report.request_id = in.read<std::uint64_t>();
    report.rank = in.read<std::int32_t>();
    report.success = in.read<std::uint8_t>() != 0;
    report.error = in.read_string();
    const auto count = in.read<std::uint32_t>();
    for (std::uint32_t n = 0; n < count; ++n) {
      std::string phase = in.read_string();
      report.phase_seconds[phase] = in.read<double>();
    }
    report.fragments = in.read<std::uint32_t>();
    return report;
  }
};

/// Scheduler → client summary when a command finishes. The runtime values
/// the paper reports: total runtime, latency (first streamed fragment),
/// and the compute/read/send split.
struct CommandStats {
  std::uint64_t request_id = 0;
  bool success = true;
  std::string error;
  double total_runtime = 0.0;   ///< seconds, submission → completion (server side)
  double latency = 0.0;         ///< seconds, submission → first data packet
  std::uint64_t partial_packets = 0;
  std::uint64_t result_bytes = 0;
  int workers = 0;
  /// Times the scheduler re-formed the work group after a member was lost
  /// (worker death, lost order, lost report). > 0 means the request ran
  /// degraded but the client still saw every fragment exactly once.
  std::uint32_t retries = 0;
  std::map<std::string, double> phase_seconds;  ///< summed over workers
  /// The width the client's `workers` param asked for (or the full pool for
  /// a derived width) before the scheduler clamped it to the alive pool or
  /// molded it down under multi-client pressure. workers < requested_workers
  /// means the request ran with degraded parallelism — previously that
  /// clamp was silent and indistinguishable from a full-width run.
  int requested_workers = 0;
  /// True when the scheduler answered from the result cache: the fragment
  /// stream was replayed verbatim from a memoized earlier run and no work
  /// group was formed. `workers` then reports the width of the original
  /// computation, while total_runtime/latency report the (near-zero)
  /// replay time.
  bool cache_hit = false;
  /// Dataset version the result was computed against (NameService version
  /// counter; 0 when the scheduler has no result cache attached). For a
  /// cache hit this is the version recorded with the memoized entry — the
  /// DST no-stale oracle asserts it is never older than the version
  /// current at submission.
  std::uint64_t data_version = 0;

  bool degraded() const { return retries > 0; }

  void serialize(util::ByteBuffer& out) const {
    out.write<std::uint64_t>(request_id);
    out.write<std::uint8_t>(success ? 1 : 0);
    out.write_string(error);
    out.write<double>(total_runtime);
    out.write<double>(latency);
    out.write<std::uint64_t>(partial_packets);
    out.write<std::uint64_t>(result_bytes);
    out.write<std::int32_t>(workers);
    out.write<std::uint32_t>(retries);
    out.write<std::uint32_t>(static_cast<std::uint32_t>(phase_seconds.size()));
    for (const auto& [phase, seconds] : phase_seconds) {
      out.write_string(phase);
      out.write<double>(seconds);
    }
    // Appended after the original layout (same idiom as
    // FragmentHeader::span_id) so older readers of the prefix still work.
    out.write<std::int32_t>(requested_workers);
    out.write<std::uint8_t>(cache_hit ? 1 : 0);
    out.write<std::uint64_t>(data_version);
  }
  static CommandStats deserialize(util::ByteBuffer& in) {
    CommandStats stats;
    stats.request_id = in.read<std::uint64_t>();
    stats.success = in.read<std::uint8_t>() != 0;
    stats.error = in.read_string();
    stats.total_runtime = in.read<double>();
    stats.latency = in.read<double>();
    stats.partial_packets = in.read<std::uint64_t>();
    stats.result_bytes = in.read<std::uint64_t>();
    stats.workers = in.read<std::int32_t>();
    stats.retries = in.read<std::uint32_t>();
    const auto count = in.read<std::uint32_t>();
    for (std::uint32_t n = 0; n < count; ++n) {
      std::string phase = in.read_string();
      stats.phase_seconds[phase] = in.read<double>();
    }
    stats.requested_workers = in.read<std::int32_t>();
    stats.cache_hit = in.read<std::uint8_t>() != 0;
    stats.data_version = in.read<std::uint64_t>();
    return stats;
  }
};

/// Fragment header prepended to every streamed / final payload so the
/// client can route by request. `partition` is the producing worker's rank
/// WITHIN its work group (its partition index), not its global rank: a
/// retried attempt re-forms the group from different physical ranks, but
/// partition k always recomputes the same share of the data, so
/// (request, partition, sequence) is a stable fragment identity the
/// scheduler uses to deduplicate retried deliveries.
struct FragmentHeader {
  std::uint64_t request_id = 0;
  std::int32_t partition = -1;
  std::uint32_t sequence = 0;
  /// obs trace context: span id of the producing worker's "send" phase
  /// span (0 = untraced). Lets trace tooling attribute each client-side
  /// fragment arrival to the worker-side send that produced it. The field
  /// is appended after the original triple on the wire, so the scheduler's
  /// in-place rewrite of the leading request_id word is unaffected.
  std::uint64_t span_id = 0;

  void serialize(util::ByteBuffer& out) const {
    out.write<std::uint64_t>(request_id);
    out.write<std::int32_t>(partition);
    out.write<std::uint32_t>(sequence);
    out.write<std::uint64_t>(span_id);
  }
  static FragmentHeader deserialize(util::ByteBuffer& in) {
    FragmentHeader header;
    header.request_id = in.read<std::uint64_t>();
    header.partition = in.read<std::int32_t>();
    header.sequence = in.read<std::uint32_t>();
    header.span_id = in.read<std::uint64_t>();
    return header;
  }
};

}  // namespace vira::core
