#pragma once

/// \file statistics.hpp
/// The DMS "statistical unit" (paper Sec. 4.2): it "records various
/// information of the system behavior" and feeds the system prefetcher and
/// the adaptive load-strategy selection. Also the source of every cache
/// metric the benches report.

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dms/data_item.hpp"
#include "obs/metrics.hpp"

namespace vira::dms {

struct DmsCounters {
  std::uint64_t requests = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t misses = 0;           ///< forced loads (cold or capacity)
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_useful = 0;  ///< prefetched items later requested
  /// Prefetched items that left the cache hierarchy (evicted from L1 with
  /// no L2, dropped demotion, L2 eviction, unreadable spill) before being
  /// requested even once: pure wasted bandwidth. Also what keeps the
  /// pending-prefetch bookkeeping bounded — before this counter existed,
  /// entries for evicted-unrequested items leaked forever.
  std::uint64_t prefetch_wasted = 0;
  /// Missed requests that found their item already loading (typically an
  /// async prefetch) and waited for that load instead of starting one.
  std::uint64_t inflight_waits = 0;
  std::uint64_t evictions_l1 = 0;
  std::uint64_t evictions_l2 = 0;
  /// Demotions re-triggered by an L2 promote: the promoted blob's re-insert
  /// into L1 evicted another resident, which spilled right back to disk.
  /// A high value relative to l2_hits means the tiers are thrashing.
  std::uint64_t l2_respills = 0;
  /// Demotions dropped because the blob alone exceeds the whole L2 budget.
  std::uint64_t demotions_dropped_oversize = 0;
  /// Demotions dropped because the spill-file write failed (disk full, I/O
  /// error); the item is NOT indexed and a later get() reloads it.
  std::uint64_t demotions_dropped_io = 0;
  /// Peer transfer (DESIGN.md §12). A "promotion" is a sharded fetch
  /// answered by a non-primary replica because an earlier owner in the ring
  /// order was dead or timed out — the failover the replica placement buys.
  std::uint64_t peer_fetches = 0;         ///< blocks obtained rank↔rank
  std::uint64_t peer_fetch_misses = 0;    ///< peer answered "not cached"
  std::uint64_t peer_fetch_timeouts = 0;  ///< peer silent: owner marked dead or holder dropped
  std::uint64_t peer_pushes = 0;          ///< replica placements sent
  std::uint64_t replica_promotions = 0;
  /// Loads that tried a peer (owner replica or named holder) and then
  /// read the disk.
  std::uint64_t peer_fallback_disk = 0;
  /// Fetches this proxy was asked to serve for items it does not own.
  std::uint64_t shard_misroutes = 0;
  /// Peer fetches refused because the cached replica pre-dated the
  /// requester's dataset version (bump invalidation reached this replica).
  std::uint64_t stale_replica_rejects = 0;
  std::uint64_t bytes_loaded = 0;
  double load_seconds = 0.0;
  /// Async (pipelined) load accounting: submissions via request_async and
  /// their settlements (completed, failed, or cancelled before running).
  /// The in-flight gauge and peak are the DST bounded-memory oracle's
  /// evidence that pipeline backpressure actually bounds outstanding bytes.
  std::uint64_t async_submitted = 0;
  std::uint64_t async_settled = 0;
  std::uint64_t async_inflight_bytes = 0;
  std::uint64_t async_peak_bytes = 0;

  double hit_rate() const {
    const auto total = requests;
    return total > 0 ? static_cast<double>(l1_hits + l2_hits) / static_cast<double>(total) : 0.0;
  }
  double miss_rate() const { return requests > 0 ? 1.0 - hit_rate() : 0.0; }
};

/// Thread-safe statistics collector with optional request-trace recording
/// (traces feed the Markov prefetcher's offline evaluation and the
/// cache-policy ablation bench).
///
/// Every record_* additionally bumps the process-wide obs::Registry
/// instruments (dms.* names) so the metrics dump aggregates across all
/// proxies; the per-instance snapshot() stays the source the benches and
/// the adaptive strategy read.
class DmsStatistics {
 public:
  void record_request(ItemId id) {
    obs_.requests.add();
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.requests;
    if (trace_enabled_) {
      trace_.push_back(id);
    }
  }
  void record_l1_hit() { bump(&DmsCounters::l1_hits, obs_.l1_hits); }
  void record_l2_hit() { bump(&DmsCounters::l2_hits, obs_.l2_hits); }
  void record_miss() { bump(&DmsCounters::misses, obs_.misses); }
  void record_prefetch_issued() { bump(&DmsCounters::prefetch_issued, obs_.prefetch_issued); }
  void record_prefetch_useful() { bump(&DmsCounters::prefetch_useful, obs_.prefetch_useful); }
  void record_prefetch_wasted() { bump(&DmsCounters::prefetch_wasted, obs_.prefetch_wasted); }
  void record_inflight_wait(double seconds) {
    obs_.inflight_wait_seconds.observe(seconds);
    bump(&DmsCounters::inflight_waits, obs_.inflight_waits);
  }
  void record_eviction_l1() { bump(&DmsCounters::evictions_l1, obs_.evictions_l1); }
  void record_eviction_l2() { bump(&DmsCounters::evictions_l2, obs_.evictions_l2); }
  void record_l2_respill() { bump(&DmsCounters::l2_respills, obs_.l2_respills); }
  void record_demotion_dropped_oversize() {
    bump(&DmsCounters::demotions_dropped_oversize, obs_.demotions_dropped_oversize);
  }
  void record_demotion_dropped_io() {
    bump(&DmsCounters::demotions_dropped_io, obs_.demotions_dropped_io);
  }
  void record_peer_fetch() { bump(&DmsCounters::peer_fetches, obs_.peer_fetches); }
  void record_peer_fetch_miss() { bump(&DmsCounters::peer_fetch_misses, obs_.peer_fetch_misses); }
  void record_peer_fetch_timeout() {
    bump(&DmsCounters::peer_fetch_timeouts, obs_.peer_fetch_timeouts);
  }
  void record_peer_push() { bump(&DmsCounters::peer_pushes, obs_.peer_pushes); }
  void record_replica_promotion() {
    bump(&DmsCounters::replica_promotions, obs_.replica_promotions);
  }
  void record_peer_fallback_disk() {
    bump(&DmsCounters::peer_fallback_disk, obs_.peer_fallback_disk);
  }
  void record_shard_misroute() { bump(&DmsCounters::shard_misroutes, obs_.shard_misroutes); }
  void record_stale_replica_reject() {
    bump(&DmsCounters::stale_replica_rejects, obs_.stale_replica_rejects);
  }

  /// An async load was submitted; `bytes` is the item's expected size
  /// (known from the source before the load runs).
  void record_async_submit(std::uint64_t bytes) {
    obs_.async_loads.add();
    obs_.async_inflight_bytes.add(static_cast<std::int64_t>(bytes));
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.async_submitted;
    counters_.async_inflight_bytes += bytes;
    counters_.async_peak_bytes =
        std::max(counters_.async_peak_bytes, counters_.async_inflight_bytes);
  }

  /// The matching settlement — exactly once per submit, whatever the
  /// outcome (value delivered, load threw, or task cancelled unrun).
  void record_async_settle(std::uint64_t bytes) {
    obs_.async_inflight_bytes.add(-static_cast<std::int64_t>(bytes));
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.async_settled;
    counters_.async_inflight_bytes -= std::min(counters_.async_inflight_bytes, bytes);
  }

  void record_load(std::uint64_t bytes, double seconds) {
    obs_.bytes_loaded.add(bytes);
    obs_.load_seconds.observe(seconds);
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.bytes_loaded += bytes;
    counters_.load_seconds += seconds;
  }

  DmsCounters snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_ = DmsCounters{};
    trace_.clear();
  }

  void enable_trace(bool enabled) {
    std::lock_guard<std::mutex> lock(mutex_);
    trace_enabled_ = enabled;
  }

  std::vector<ItemId> trace() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return trace_;
  }

 private:
  /// Shared obs instruments (dms.* names, one set per process, resolved
  /// once per DmsStatistics instance — registration-time lookup only).
  struct ObsInstruments {
    obs::Counter& requests = obs::Registry::instance().counter("dms.requests");
    obs::Counter& l1_hits = obs::Registry::instance().counter("dms.l1_hits");
    obs::Counter& l2_hits = obs::Registry::instance().counter("dms.l2_hits");
    obs::Counter& misses = obs::Registry::instance().counter("dms.misses");
    obs::Counter& prefetch_issued = obs::Registry::instance().counter("dms.prefetch_issued");
    obs::Counter& prefetch_useful = obs::Registry::instance().counter("dms.prefetch_useful");
    obs::Counter& prefetch_wasted = obs::Registry::instance().counter("dms.prefetch_wasted");
    obs::Counter& inflight_waits = obs::Registry::instance().counter("dms.inflight_waits");
    obs::Histogram& inflight_wait_seconds =
        obs::Registry::instance().histogram("dms.inflight_wait_seconds");
    obs::Counter& evictions_l1 = obs::Registry::instance().counter("dms.evictions_l1");
    obs::Counter& evictions_l2 = obs::Registry::instance().counter("dms.evictions_l2");
    obs::Counter& l2_respills = obs::Registry::instance().counter("dms.l2_respills");
    obs::Counter& demotions_dropped_oversize =
        obs::Registry::instance().counter("dms.demotions_dropped_oversize");
    obs::Counter& demotions_dropped_io =
        obs::Registry::instance().counter("dms.demotions_dropped_io");
    obs::Counter& peer_fetches = obs::Registry::instance().counter("dms.peer_fetches");
    obs::Counter& peer_fetch_misses = obs::Registry::instance().counter("dms.peer_fetch_misses");
    obs::Counter& peer_fetch_timeouts =
        obs::Registry::instance().counter("dms.peer_fetch_timeouts");
    obs::Counter& peer_pushes = obs::Registry::instance().counter("dms.peer_pushes");
    obs::Counter& replica_promotions =
        obs::Registry::instance().counter("dms.replica_promotions");
    obs::Counter& peer_fallback_disk =
        obs::Registry::instance().counter("dms.peer_fallback_disk");
    obs::Counter& shard_misroutes = obs::Registry::instance().counter("dms.shard_misroutes");
    obs::Counter& stale_replica_rejects =
        obs::Registry::instance().counter("dms.stale_replica_rejects");
    obs::Counter& bytes_loaded = obs::Registry::instance().counter("dms.bytes_loaded");
    obs::Histogram& load_seconds = obs::Registry::instance().histogram("dms.load_seconds");
    obs::Counter& async_loads = obs::Registry::instance().counter("dms.async_loads");
    obs::Gauge& async_inflight_bytes =
        obs::Registry::instance().gauge("dms.async_inflight_bytes");
  };

  void bump(std::uint64_t DmsCounters::* member, obs::Counter& mirror) {
    mirror.add();
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.*member += 1;
  }

  mutable std::mutex mutex_;
  DmsCounters counters_;
  bool trace_enabled_ = false;
  std::vector<ItemId> trace_;
  ObsInstruments obs_;
};

}  // namespace vira::dms
