#pragma once

/// \file dst_harness.hpp
/// Deterministic simulation-testing harness: runs the shipped
/// core::Backend (scheduler, workers, DMS, client links from connect(); no
/// models) under sim::VirtualClock against a seeded Scenario, with the
/// shipped comm::FaultInjectingTransport over an InProcTransport and a
/// synthetic data source injected, and checks invariant oracles over the
/// outcome (DESIGN.md "Testing strategy"). The scenario maps onto a
/// BackendConfig and the decorator's fault rates; the driver loop kills
/// ranks at their scheduled virtual instants. Sharded scenarios run the
/// shard ring Backend builds.
///
/// Oracles:
///   1. exactly-once — no duplicated (request, partition, sequence)
///      fragment reaches the client (transport duplicates and retry
///      recomputation included),
///   2. terminal outcome — every submitted request receives exactly one
///      kTagComplete; any retried request surfaced kTagDegraded first,
///   3. worker conservation — after the last completion the pool settles to
///      free + lost == worker_count with no group leaked,
///   4. cache accounting — per proxy: requests == l1_hits + l2_hits +
///      misses, resident bytes equal the byte-count bookkeeping, and both
///      tiers respect their capacity,
///   5. stall budget — the scenario makes progress within a (virtual) bound;
///      a silent stall is a liveness bug, not a timeout.
///   6. terminal answer — every submission ends in exactly one of
///      kTagComplete or kTagRejected, never both (admission control and the
///      QoS dispatch may not drop or double-answer a request),
///   7. no starvation — under kFairShare no queue head is ever bypassed
///      more than the configured aging bound (max_head_bypass),
///   8. result-cache integrity (rc= scenarios) — a cache-hit completion is
///      successful, retry-free, and its fragment stream is byte-identical
///      to one a real work group previously computed for the same
///      workload; no completion ever reports a dataset version older than
///      the version current when it was submitted (no stale geometry after
///      an invalidation),
///   9. replica consistency — after the run settles, every block resident
///      in any proxy's L1 is byte-identical to the synthetic source's
///      content for that id: no matter which peer served it (holder, owner,
///      promoted survivor, peer push), the bytes are the ones the original
///      store produced,
///  10. completeness — a successful request delivered workers × partials
///      partials, plus the master's final unless fail_rank >= 0 (no success
///      with fragments missing, from a live group or a cache replay),
///  11. fault freedom — a scenario without drops and kills ends with zero
///      retries and zero ranks declared dead (delays and duplicates alone
///      must not look like a lost order or a dead worker).
///  12. answer agreement — every kTagComplete's partial_packets equals the
///      distinct partials its client accepted, and over the scenario
///      sched.requests, sched.failed and sched.degraded grow by exactly the
///      completions, failed completions and retried completions the
///      clients saw (every answer is counted once, whatever ended it).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "comm/fault_transport.hpp"
#include "sim/dst_clock.hpp"

namespace vira::sim {

/// One client request in the scenario's workload mix.
struct DstRequest {
  int width = 0;        ///< worker count (0 = all alive)
  int partials = 2;     ///< streamed fragments per group member
  int payload = 64;     ///< bytes per fragment
  int dms_items = 0;    ///< proxy requests per fragment
  int first_item = 0;   ///< starting index into the synthetic item space
  bool barrier = false; ///< group barrier between fragments
  int fail_rank = -1;   ///< partition that throws (command failure path)
  int submit_at_ms = 0; ///< virtual submit time
  int item_sleep_us = 0;  ///< virtual compute per fragment
  int client = 0;         ///< submitting client link (clamped to Scenario::clients)
  int cancel_at_ms = -1;  ///< virtual time to send kTagCancel (-1 = never)
};

/// A complete deterministic scenario: workload × fault schedule × stack
/// configuration. Serializes to a one-line string for replay and shrinking.
struct Scenario {
  std::uint64_t seed = 0;  ///< generator seed (0 = hand-built)
  int workers = 3;
  std::vector<DstRequest> requests;

  /// Transport faults (rates in [0,1]; kills are (virtual ms, rank)).
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  double delay_rate = 0.0;
  int max_delay_ms = 5;
  std::vector<std::pair<int, int>> kills;

  /// DMS configuration.
  std::string policy = "fbr";
  std::uint64_t l1_bytes = 16 * 1024;
  bool l2 = false;
  std::uint64_t l2_bytes = 64 * 1024;
  std::string prefetcher = "obl";
  bool async_prefetch = true;
  int item_count = 32;
  int item_bytes = 1024;

  /// Scheduler / worker liveness knobs (virtual milliseconds).
  int heartbeat_ms = 20;
  int death_ms = 150;
  int idle_grace_ms = 40;
  int max_retries = 3;
  int backoff_ms = 5;
  int request_timeout_ms = 0;
  /// Exactly-once switch — disabled only to demonstrate that the oracle
  /// catches the resulting duplicates (the deliberate-violation demo).
  bool fragment_dedup = true;

  /// Multi-client QoS knobs (scheduler SchedPolicy et al.). `clients` link
  /// pairs are attached; each request routes through its DstRequest::client.
  int clients = 1;
  bool qos_fair = true;  ///< false = SchedPolicy::kFifo (the seed discipline)
  int max_queue = 0;     ///< per-client admission bound (0 = unbounded)
  int head_bypass = 8;   ///< aging bound (SchedulerConfig::max_head_bypass)

  /// Pipelined (async) executor knobs: worker task-pool threads and the
  /// bounded in-flight window DstWorkCommand uses for its DMS loads. Both
  /// zero = the seed's serial request path. When enabled, a sixth oracle
  /// checks async-load accounting: every submission settles and the peak
  /// outstanding bytes respect the window bound (backpressure really
  /// bounds memory).
  int pipeline_threads = 0;
  int pipeline_window = 0;

  /// Scheduler result cache: primary-tier budget in KiB (0 = disabled).
  /// The cache reuses the scenario's `policy` for replacement so all three
  /// policy classes get fuzzed here too.
  int result_cache_kb = 0;
  /// Virtual times (ms) at which the dataset version is bumped — each bump
  /// invalidates every memoized result; the no-stale oracle checks that no
  /// later completion reports an older version.
  std::vector<int> bumps;

  /// Sharded DMS (DESIGN.md §12): shards > 1 spreads block ownership over
  /// the first min(shards, workers) proxies by consistent hashing and
  /// routes misses proxy→proxy; repl >= 2 replicates each block across
  /// that many owners so kills compose with peer transfer (the replica-
  /// failover scenarios). The default (1, 1) is the central path, where
  /// the fitness function names peer-transfer holders; scenario strings
  /// without these keys parse to it.
  int shards = 1;
  int repl = 1;

  /// Virtual progress bound for the stall oracle.
  int stall_budget_ms = 8000;

  std::string to_string() const;
  static std::optional<Scenario> parse(const std::string& text);
};

/// Everything a scenario run produces (all deterministic per scenario).
struct ScenarioResult {
  std::vector<std::string> violations;  ///< empty = all oracles passed
  std::uint64_t trajectory_hash = 0;
  std::uint64_t transport_events = 0;
  std::uint64_t context_switches = 0;
  std::int64_t virtual_end_ns = 0;
  int completed = 0;  ///< requests that reached kTagComplete
  int succeeded = 0;
  int failed = 0;     ///< completed unsuccessfully (kTagError seen)
  int degraded = 0;   ///< requests that retried at least once
  int rejected = 0;   ///< refused by admission control (kTagRejected)
  std::uint64_t fragments = 0;  ///< partial/final packets accepted
  std::uint64_t backfills = 0;  ///< scheduler backfill dispatches
  int max_head_bypass_seen = 0;  ///< vs the scenario's aging bound
  int cache_hits = 0;  ///< completions served from the result cache

  /// Peer-transfer aggregates, all proxies summed (pushes and promotions
  /// stay zero in shards=1 runs).
  std::uint64_t peer_fetches = 0;
  std::uint64_t peer_pushes = 0;
  std::uint64_t replica_promotions = 0;
  std::uint64_t peer_fallback_disk = 0;
  std::uint64_t stale_replica_rejects = 0;
  /// peer_fallback_disk accrued after the last scheduled kill fired — the
  /// replica-coverage measure: with R >= 2 and warm replicas, blocks owned
  /// by the killed rank re-serve from survivors and this stays 0 (the
  /// targeted failover tests assert exactly that).
  std::uint64_t peer_fallback_disk_after_kill = 0;

  /// Per-request terminal record, keyed by request id (index + 1): virtual
  /// completion time plus the width the group actually ran at vs asked for.
  /// Lets targeted tests assert ordering ("the narrow request finished
  /// while the wide stream was still running") and molding in virtual time.
  struct Terminal {
    std::int64_t at_ns = 0;
    int workers = 0;
    int requested_workers = 0;
    bool success = false;
    bool rejected = false;
    bool cache_hit = false;             ///< served from the result cache
    std::uint64_t data_version = 0;     ///< version the result was computed against
    double total_runtime = 0.0;         ///< CommandStats, submission → completion
    double latency = 0.0;               ///< CommandStats, submission → first packet
  };
  std::map<std::uint64_t, Terminal> terminals;
  comm::FaultInjectionStats faults;
  std::size_t ranks_killed = 0;

  bool ok() const { return violations.empty(); }
};

/// Runs one scenario under virtual time. Installs the virtual clock as the
/// process-global util clock for the duration; the process must be
/// otherwise quiescent (no concurrent real-mode vira threads).
ScenarioResult run_scenario(const Scenario& scenario);

}  // namespace vira::sim
