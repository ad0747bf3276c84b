#pragma once

/// \file scheduler.hpp
/// The Viracocha scheduler (paper Sec. 3, Fig. 2).
///
/// "Whenever the user requires a new CFD feature, a command is sent from
/// ViSTA FlowLib to the scheduler of Viracocha. As soon as enough processes
/// (called workers) are available, they form a work group and a new
/// parallel post-processing task is started."
///
/// Single thread, two inputs: the client link (submissions, cancels) and
/// the rank transport (worker traffic). It forms work groups, forwards
/// streamed fragments to the client as they arrive, measures per-request
/// total runtime and latency on the server side (exactly where the paper
/// measured), and frees workers when every group member reported done.
/// A request keeps one record across its attempts, and every outcome (a
/// finished group, a failure, a cancel, a cache hit) ends in one answer,
/// which counts it in the sched.* request metrics.
///
/// Queueing model (DESIGN.md "Scheduling & QoS"): dispatch follows a
/// configurable discipline. The default, SchedPolicy::kFairShare, keeps
/// per-client FIFO order but molds derived group widths so concurrent
/// clients share the pool, backfills narrow requests past a blocked wide
/// head (bounded by an aging counter so the head cannot starve), rejects
/// submissions beyond a per-client queue bound, and reaps work whose
/// client link has closed. SchedPolicy::kFifo restores the seed's strict
/// single-queue arrival order.
///
/// Failure model (DESIGN.md "Failure model"): workers heartbeat; the
/// scheduler tracks last-seen per rank and declares a worker dead after
/// `death_timeout`. Losing a group member does not fail the request —
/// the scheduler aborts the surviving members, re-forms the work group at
/// the same width and re-dispatches with bounded retries and exponential
/// backoff. Fragments already forwarded to the client are deduplicated by
/// (partition, sequence), so retried delivery stays exactly-once. Done
/// reports carry each member's fragment count, and a group finishes only
/// once every announced fragment was forwarded; one still missing
/// fragments `idle_grace` after its last report is re-formed too.

#include <atomic>
#include <cstring>
#include <deque>
#include <utility>
#include <vector>
#include <map>
#include <functional>
#include <memory>
#include <set>

#include "comm/client_link.hpp"
#include "comm/communicator.hpp"
#include "dms/data_server.hpp"
#include "core/protocol.hpp"
#include "core/result_cache.hpp"
#include "obs/tracer.hpp"
#include "util/clock.hpp"

namespace vira::core {

/// Queue discipline for dispatch_pending().
enum class SchedPolicy {
  /// Strict arrival order, one global queue: the seed behavior. A wide
  /// blocked head serializes every client behind it.
  kFifo,
  /// Per-client FIFO with cross-client backfilling: each client's oldest
  /// queued request competes for free workers; derived widths are molded
  /// down so K active clients share the pool; a bypassed head ages (see
  /// SchedulerConfig::max_head_bypass) and eventually dispatches.
  kFairShare,
};

/// Liveness / recovery / QoS policy knobs.
struct SchedulerConfig {
  /// No message (heartbeat or otherwise) from a rank for this long →
  /// the rank is declared dead and permanently removed from the pool.
  std::chrono::milliseconds death_timeout{2000};
  /// A member whose heartbeats have named a different request for this
  /// long (from the later of the dispatch and the change) has lost its
  /// execute order or its done report; the group is re-formed. Also how
  /// long a group whose members all reported done waits for fragments they
  /// announced before it is re-formed.
  std::chrono::milliseconds idle_grace{500};
  /// Work-group re-formations per request before giving up.
  int max_retries = 2;
  /// Backoff before re-dispatch: retry_backoff * 2^attempt.
  std::chrono::milliseconds retry_backoff{10};
  /// Whole-attempt watchdog (0 = disabled): an attempt older than this is
  /// aborted and retried even if every member still looks alive — the
  /// safety net for lossy transports that silently swallow group-internal
  /// collective traffic.
  std::chrono::milliseconds request_timeout{0};
  /// Exactly-once fragment forwarding (dedup by (partition, sequence)).
  /// Diagnostic switch: the DST harness disables it to prove its
  /// exactly-once oracle catches the resulting duplicate deliveries. The
  /// completeness bookkeeping runs either way.
  bool fragment_dedup = true;
  /// Longest the scheduler loop sleeps when idle (the poll slice for both
  /// client links and worker traffic). With the event-loop frontend wired
  /// (nudger() on link readability) and for Backend::connect() links
  /// (nudger() on every send) this is only the fallback cadence, so it can
  /// be raised without hurting request pickup latency; with tick polling
  /// alone it bounds pickup latency directly.
  std::chrono::milliseconds idle_poll{2};

  /// --- QoS (DESIGN.md "Scheduling & QoS") --------------------------------
  /// Queue discipline. kFairShare is single-client-identical to kFifo (one
  /// client's own requests never reorder and mold to the full pool), so the
  /// seed behavior is preserved unless several clients contend.
  SchedPolicy policy = SchedPolicy::kFairShare;
  /// Aging bound: how many times a ready queue head may be bypassed by
  /// backfilled requests before backfilling pauses and the head gets strict
  /// priority for the next free workers. Bounds starvation under a
  /// permanent stream of narrow requests.
  int max_head_bypass = 8;
  /// Admission control: queued (not yet dispatched) requests allowed per
  /// client; a submission beyond the bound is answered with kTagRejected
  /// instead of growing pending_ without limit. 0 = unbounded.
  std::size_t max_queue_per_client = 64;

  /// --- Result memoization (DESIGN.md "Result memoization") ----------------
  /// Content-addressed result cache consulted before forming a work group;
  /// disabled by default (see ResultCacheConfig::enabled).
  ResultCacheConfig result_cache;
};

class Scheduler {
 public:
  /// `data_server` names and versions the DMS items: its dataset version
  /// keys the result cache, and it answers message-based DMS traffic
  /// (RemoteServerApi strategy/naming requests).
  Scheduler(std::shared_ptr<comm::Transport> transport, int worker_count,
            std::shared_ptr<dms::DataServer> data_server,
            SchedulerConfig config = SchedulerConfig{});

  /// Attaches an additional client connection (multiple visualization
  /// hosts may be served concurrently; results are routed back to the
  /// client that submitted the request). Thread-safe.
  void attach_client(std::shared_ptr<comm::ClientLink> link);

  /// Number of live client connections (closed links are pruned lazily).
  std::size_t client_count() const;

  /// Blocks servicing requests until stop(), or returns at once if stop()
  /// came first. Sends kTagShutdown to all workers on the way out.
  void run();
  void stop();

  /// A callable that wakes the scheduler loop out of its idle poll wait:
  /// a client link turned readable (or closed), so poll_clients should run
  /// now instead of after the poll slice. The event loop rings it on
  /// readability, Backend::connect() links on every send. Thread-safe and
  /// cheap to call repeatedly — at most one nudge message is in flight at
  /// a time. It co-owns the transport, so it may outlive the scheduler
  /// (sends after shutdown are dropped). Request pickup latency thus
  /// tracks message arrival, not the tick cadence.
  std::function<void()> nudger();

  /// Diagnostics. free_workers / queued_requests / active_groups read
  /// atomic mirrors the scheduler loop refreshes once per tick, so any
  /// thread may poll them (they lag the private containers by <= 1 tick).
  std::size_t free_workers() const;
  std::size_t queued_requests() const;
  /// Ranks declared dead so far (they never return to the pool).
  std::size_t lost_workers() const { return lost_workers_.load(); }
  /// Work-group re-formations performed so far (all requests).
  std::uint64_t total_retries() const { return total_retries_.load(); }
  /// Work groups currently in flight.
  std::size_t active_groups() const { return group_count_.load(std::memory_order_relaxed); }
  /// Backfills performed: dispatches of a non-head request while the head
  /// was ready but blocked on width (kFairShare only).
  std::uint64_t total_backfills() const { return total_backfills_.load(); }
  /// Submissions refused by admission control (kTagRejected sent).
  std::uint64_t total_rejected() const { return total_rejected_.load(); }
  /// Queued entries and in-flight groups abandoned because their client
  /// link closed before they ran / finished.
  std::uint64_t total_reaped() const { return total_reaped_.load(); }
  /// Highest bypass count any queue head accumulated — the DST
  /// no-starvation oracle asserts this never exceeds max_head_bypass.
  int max_head_bypass_observed() const { return max_bypass_observed_.load(); }
  /// Requests served from the result cache (no work group formed).
  std::uint64_t total_cache_hits() const { return cache_hits_.load(); }

 private:
  /// Time points are steady_clock-typed but every read goes through the
  /// injectable util clock (virtual under DST, real otherwise).
  using Clock = std::chrono::steady_clock;

  /// One client request across all its attempts: what it asked for, where
  /// to answer, and everything its answer reports. PendingRequest and Group
  /// extend it, so a dispatch and a retry each move it whole.
  struct Request {
    CommandRequest request;
    std::size_t client = 0;  ///< index of the submitting client
    int attempt = 0;         ///< 0 = first dispatch
    int width = 0;           ///< fixed at the first dispatch (0 = derive)
    /// Width the client asked for before clamping/molding (recorded at the
    /// first dispatch; pinned across retries like width).
    int requested_workers = 0;
    /// First enqueue. Every answer counts its seconds from here, so they
    /// cover queue waits, retry backoffs and every attempt.
    Clock::time_point submitted_at{};
    double first_packet_seconds = -1.0;
    std::uint64_t partial_packets = 0;
    std::uint64_t result_bytes = 0;
    std::map<std::string, double> phase_seconds;  ///< summed over members and attempts
    std::set<std::uint64_t> seen_fragments;       ///< fragment ids already forwarded
    /// Result-cache key and the dataset version it was made under, set when
    /// serve_cache_hits first sees the request (empty = not keyed yet). A
    /// miss carries them into the group so the finished stream can be
    /// admitted under the same key, and every answer reports the version.
    std::string cache_key;
    std::uint64_t cache_version = 0;

    double seconds_since_submit() const {
      return std::chrono::duration<double>(util::clock_now() - submitted_at).count();
    }
  };

  /// A request waiting in pending_ for workers.
  struct PendingRequest : Request {
    PendingRequest() = default;
    explicit PendingRequest(Request record) : Request(std::move(record)) {}
    /// Times a ready head was bypassed by a backfilled dispatch; compared
    /// against max_head_bypass to age the head into strict priority.
    int bypassed = 0;
    Clock::time_point enqueued_at{};  ///< for queue-wait metrics
    Clock::time_point not_before{};   ///< backoff gate
    /// "sched.queue" span covering enqueue → dispatch/terminal, parented
    /// under the client's request span so queue wait shows up in traces.
    obs::ActiveSpan queue_span;
  };

  /// One attempt of a request, running on a work group.
  struct Group : Request {
    explicit Group(Request record) : Request(std::move(record)) {}
    std::vector<int> ranks;  ///< partition k runs on ranks[k]; ranks[0] is the master
    bool failed = false;
    std::string error;
    /// Stop forwarding: the client cancelled, or its link closed.
    bool cancelled = false;
    Clock::time_point dispatched_at{};
    std::set<int> done_ranks;  ///< members whose done report arrived
    /// partition -> fragment count from its done report. The group finishes
    /// once every announced (partition, sequence) is in seen_fragments.
    std::map<std::int32_t, std::uint32_t> announced;
    Clock::time_point last_report_at{};
    /// Result-cache capture: every deduplicated fragment forwarded to the
    /// client is copied here (first attempt only); finish_group admits the
    /// sequence under cache_key if the stream ended fully successful.
    bool capture = false;
    std::uint64_t capture_bytes = 0;
    std::vector<CachedResult::Fragment> captured;
    /// Per-attempt "sched.request" trace span (parented under the client's
    /// span; a retried request opens a fresh one, so recovery is visible
    /// as a second span tree). Ends when the Group is destroyed.
    obs::ActiveSpan span;
  };

  /// True iff a client message was taken (the tick has client work).
  bool poll_clients();
  /// Drains worker traffic; waits up to idle_poll for it only when `idle`.
  void poll_workers(bool idle);
  void dispatch_pending();
  void dispatch_fifo();
  void dispatch_fair_share();
  void reap_closed_clients();
  bool client_link_closed(std::size_t client) const;
  /// Width the entry asks for before clamping: the `workers` param if set,
  /// else the whole alive pool (the seed's derived default).
  int requested_width(const PendingRequest& entry, int alive) const;
  void note_dispatch(PendingRequest& entry);
  /// Current NameService dataset version.
  std::uint64_t current_data_version() const;
  /// Keys unchecked attempt-0 entries against the result cache and serves
  /// hits by replaying the recorded fragment sequence — no work group is
  /// formed. Runs at the top of dispatch_pending().
  void serve_cache_hits();
  void replay_cached(PendingRequest& entry, const CachedResult& hit);
  /// Sends one fragment to the request's client, re-addressed to the
  /// client's request id, under a "link.send" span child of `parent_span`.
  void forward(const Request& record, bool final, util::ByteBuffer payload,
               std::uint64_t parent_span);
  /// The answer's numbers for a computed request, timed from its
  /// submission (success; a failing caller sets success and error).
  static CommandStats stats_of(const Request& record);
  /// The one way a request ends: kTagError first if it failed, then
  /// kTagComplete. Every answer counts in the sched.* request metrics.
  void answer(const Request& record, const CommandStats& stats, std::uint64_t trace_span = 0);
  void check_liveness();
  /// True once `rank`'s heartbeats have named another request than
  /// `internal_id` for idle_grace since the later of `dispatched_at` and
  /// the change, so a done report delayed behind an "idle" beat lands.
  bool left_request(int rank, std::uint64_t internal_id, Clock::time_point dispatched_at) const;
  void recover_group(std::uint64_t internal_id, const std::string& reason);
  /// Sends kTagGroupAbort to every member that is neither done nor dead.
  void abort_members(std::uint64_t internal_id, const Group& group);
  void fail_pending(PendingRequest& entry, const std::string& reason);
  void start_group(PendingRequest entry);
  /// True once every member reported done and, unless the attempt failed
  /// or was cancelled, every fragment they announced was forwarded.
  bool group_complete(const Group& group) const;
  void finish_group(std::uint64_t request_id);
  /// `trace_request`/`trace_span` annotate the message so a deferred-write
  /// link (the event-loop frontend) can open a "net.send" span under the
  /// caller's span covering queue + socket time. 0 = untraced send.
  void send_to_client(std::size_t client, int tag, util::ByteBuffer payload,
                      std::uint64_t trace_request = 0, std::uint64_t trace_span = 0);

  void handle_stream(comm::Message& msg, bool final);
  void handle_done(comm::Message& msg);
  void handle_progress(comm::Message& msg);
  void handle_heartbeat(comm::Message& msg);

  comm::Communicator comm_;
  int worker_count_;
  SchedulerConfig config_;
  /// Set by stop(), never cleared: a stop that lands before run() starts
  /// (a Backend torn down at once) still ends the loop.
  std::atomic<bool> stopped_{false};
  std::shared_ptr<dms::DataServer> data_server_;

  /// Result memoization (nullptr when config_.result_cache.enabled is
  /// false). Scheduler-thread-only access.
  std::unique_ptr<ResultCache> result_cache_;
  /// Last dataset version observed; a change eagerly purges the cache
  /// (entries are unreachable anyway — the version is part of the key).
  std::uint64_t last_data_version_ = 0;
  std::atomic<std::uint64_t> cache_hits_{0};

  mutable std::mutex client_mutex_;
  std::vector<std::shared_ptr<comm::ClientLink>> clients_;

  std::set<int> free_;  // free worker ranks
  std::deque<PendingRequest> pending_;
  /// Keyed by scheduler-internal request id (client ids may collide; each
  /// retry attempt gets a fresh internal id so stragglers of an abandoned
  /// attempt can never corrupt its successor).
  std::map<std::uint64_t, Group> groups_;
  /// (client index, client request id) -> internal id, for cancels.
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t> by_client_;
  std::uint64_t next_internal_id_ = 1;

  /// --- liveness bookkeeping ------------------------------------------------
  std::map<int, Clock::time_point> last_seen_;       ///< any message
  std::map<int, Clock::time_point> last_heartbeat_;  ///< heartbeats only
  std::map<int, std::uint64_t> reported_request_;    ///< from heartbeats
  std::map<int, Clock::time_point> reported_since_;  ///< reported_request_ last changed
  /// Last time a stale-execution abort was re-sent per rank (see
  /// check_liveness: a dropped kTagGroupAbort must be retried or the rank
  /// leaks, stuck executing an abandoned attempt forever).
  std::map<int, Clock::time_point> last_stale_abort_;
  std::set<int> dead_;
  std::atomic<std::size_t> lost_workers_{0};
  std::atomic<std::uint64_t> total_retries_{0};

  /// Nudge dedup: true while a kTagNudge message is in flight so repeated
  /// readability callbacks collapse into one wakeup. Cleared by the
  /// scheduler loop when the nudge is consumed. Shared with nudger().
  std::shared_ptr<comm::Transport> transport_;
  std::shared_ptr<std::atomic<bool>> nudge_pending_ = std::make_shared<std::atomic<bool>>(false);

  /// Race-free mirrors of free_ / pending_ / groups_ sizes for the public
  /// diagnostics (refreshed once per scheduler-loop tick).
  std::atomic<std::size_t> free_count_{0};
  std::atomic<std::size_t> pending_count_{0};
  std::atomic<std::size_t> group_count_{0};

  /// --- QoS bookkeeping -----------------------------------------------------
  /// Width-weighted service received per client (deficit-round-robin):
  /// backfilling picks the dispatchable candidate of the least-served
  /// client. Entries are pruned when a client goes idle and re-join at the
  /// least-served active level, so history never starves a newcomer's peers.
  std::map<std::size_t, std::uint64_t> client_service_;
  std::atomic<std::uint64_t> total_backfills_{0};
  std::atomic<std::uint64_t> total_rejected_{0};
  std::atomic<std::uint64_t> total_reaped_{0};
  std::atomic<int> max_bypass_observed_{0};
};

}  // namespace vira::core
