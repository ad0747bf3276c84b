// Deterministic simulation tests (DESIGN.md "Testing strategy"): the real
// scheduler/worker/DMS stack under sim::VirtualClock, driven by seeded
// fault schedules, checked by invariant oracles, minimized by the shrinker.
//
// Everything here is bit-deterministic: the same seed always produces the
// same trajectory hash, so there are no timing assumptions to flake on.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/client_link.hpp"
#include "comm/communicator.hpp"
#include "comm/fault_transport.hpp"
#include "core/protocol.hpp"
#include "core/scheduler.hpp"
#include "core/vmb_data_source.hpp"
#include "dms/data_proxy.hpp"
#include "dms/data_server.hpp"
#include "sim/dst_clock.hpp"
#include "sim/dst_fuzz.hpp"
#include "sim/dst_harness.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace vira {
namespace {

// Fault scenarios log rivers of intentional warnings/errors; keep the test
// output readable.
struct QuietLogs {
  QuietLogs() { util::Logger::instance().set_level(util::LogLevel::kError); }
} quiet_logs;

// --- VirtualClock unit behavior ---------------------------------------------

TEST(VirtualClockTest, SleepAdvancesVirtualTimeExactly) {
  sim::VirtualClock clock;
  clock.register_driver();
  EXPECT_EQ(clock.now_ns(), 0);
  clock.sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(clock.now_ns(), 5'000'000);
  clock.sleep_for(std::chrono::microseconds(250));
  EXPECT_EQ(clock.now_ns(), 5'250'000);
  clock.unregister_driver();
}

// --- Event-driven waits through the Clock seam ---------------------------------
//
// Under the virtual clock a wait that polled in slices would end on a slice
// boundary; an event-driven one ends at the exact instant of the event. So
// each test below pins the virtual time at which a wait returns.

/// Installs a VirtualClock as the global clock, the test thread its driver.
/// Participants start with util::spawn_thread; join every one
/// (clock->join_thread) before this goes out of scope.
class GlobalVirtualClock {
 public:
  GlobalVirtualClock() : clock_(std::make_shared<sim::VirtualClock>()) {
    clock_->register_driver();
    util::set_global_clock(clock_.get());
  }
  ~GlobalVirtualClock() {
    util::set_global_clock(nullptr);
    clock_->unregister_driver();
  }
  GlobalVirtualClock(const GlobalVirtualClock&) = delete;
  GlobalVirtualClock& operator=(const GlobalVirtualClock&) = delete;

  sim::VirtualClock& operator*() { return *clock_; }
  sim::VirtualClock* operator->() { return clock_.get(); }
  const std::shared_ptr<sim::VirtualClock>& shared() { return clock_; }

 private:
  std::shared_ptr<sim::VirtualClock> clock_;
};

constexpr std::int64_t kMs = 1'000'000;

TEST(VirtualClockTest, ConditionWaitWakesAtTheNotifyInstant) {
  GlobalVirtualClock clock;
  std::mutex mutex;
  util::ClockCondition cv;
  bool ready = false;
  bool satisfied = false;
  std::int64_t woke_at = -1;
  std::thread waiter = util::spawn_thread("waiter", [&] {
    std::unique_lock<std::mutex> lock(mutex);
    satisfied = cv.wait_until(lock, util::clock_deadline(std::chrono::milliseconds(100)),
                              [&] { return ready; });
    woke_at = clock->now_ns();
  });
  clock->sleep_for(std::chrono::milliseconds(3));  // the waiter parks meanwhile
  {
    std::lock_guard<std::mutex> lock(mutex);
    ready = true;
  }
  cv.notify_all();
  clock->join_thread(waiter);
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(woke_at, 3 * kMs);  // the notify, not the 100 ms deadline
}

TEST(VirtualClockTest, ConditionWaitExpiresExactlyAtItsDeadline) {
  GlobalVirtualClock clock;
  std::mutex mutex;
  util::ClockCondition cv;
  bool released = false;
  bool timed_result = true;
  std::int64_t timed_at = -1;
  std::int64_t untimed_at = -1;
  std::thread timed = util::spawn_thread("timed", [&] {
    std::unique_lock<std::mutex> lock(mutex);
    timed_result = cv.wait_until(lock, util::clock_deadline(std::chrono::milliseconds(7)),
                                 [] { return false; });
    timed_at = clock->now_ns();
  });
  // An untimed wait never pulls virtual time forward: only the notify below
  // ends it, after the driver's own 20 ms sleep.
  std::thread untimed = util::spawn_thread("untimed", [&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return released; });
    untimed_at = clock->now_ns();
  });
  clock->sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  cv.notify_one();
  clock->join_thread(timed);
  clock->join_thread(untimed);
  EXPECT_FALSE(timed_result);
  EXPECT_EQ(timed_at, 7 * kMs);
  EXPECT_EQ(untimed_at, 20 * kMs);
}

TEST(DstEventWaitTest, MessagePumpedBySiblingReachesItsAddresseeAtDelivery) {
  // Two threads receive on rank 1. The sibling waits on the transport, so
  // it is the one woken by the tag-7 message; it must hand the message to
  // the tag-7 receiver at once, not at the end of a pump slice.
  GlobalVirtualClock clock;
  auto transport = std::make_shared<comm::InProcTransport>(2);
  comm::Communicator sender(transport, 0);
  comm::Communicator receiver(transport, 1);

  std::thread sibling = util::spawn_thread("sibling", [&] {
    EXPECT_FALSE(receiver.try_recv(comm::kAnySource, 99, std::chrono::milliseconds(50)));
  });
  std::int64_t received_at = -1;
  std::thread addressee = util::spawn_thread("addressee", [&] {
    if (receiver.try_recv(0, 7, std::chrono::milliseconds(40))) {
      received_at = clock->now_ns();
    }
  });
  clock->sleep_for(std::chrono::milliseconds(5));
  sender.send(1, 7, util::ByteBuffer());
  clock->join_thread(addressee);
  clock->join_thread(sibling);
  EXPECT_EQ(received_at, 5 * kMs);
}

TEST(DstEventWaitTest, DelayedMessageArrivesItsDelayAfterTheSendInSendOrder) {
  // With delay_rate = 1 and max_delay = 1 ms every message is held exactly
  // 1 ms on the decorator's delay thread: the three sent at 2 ms arrive at
  // 3 ms, in send order, and the one sent at 6 ms at 7 ms.
  GlobalVirtualClock clock;
  comm::FaultInjectionConfig faults;
  faults.delay_rate = 1.0;
  faults.max_delay = std::chrono::milliseconds(1);
  auto transport = std::make_shared<comm::FaultInjectingTransport>(
      std::make_shared<comm::InProcTransport>(2), faults);
  comm::Communicator sender(transport, 0);
  comm::Communicator receiver(transport, 1);

  std::vector<std::pair<int, std::int64_t>> arrivals;  // (tag, virtual ns)
  std::thread reader = util::spawn_thread("reader", [&] {
    for (int n = 0; n < 4; ++n) {
      if (auto msg = receiver.try_recv(0, comm::kAnyTag, std::chrono::milliseconds(50))) {
        arrivals.emplace_back(msg->tag, clock->now_ns());
      }
    }
  });
  clock->sleep_for(std::chrono::milliseconds(2));
  for (const int tag : {1, 2, 3}) {
    sender.send(1, tag, util::ByteBuffer());
  }
  clock->sleep_for(std::chrono::milliseconds(4));
  sender.send(1, 4, util::ByteBuffer());
  clock->join_thread(reader);
  EXPECT_EQ(arrivals, (std::vector<std::pair<int, std::int64_t>>{
                          {1, 3 * kMs}, {2, 3 * kMs}, {3, 3 * kMs}, {4, 7 * kMs}}));
  EXPECT_EQ(transport->stats().delayed, 4u);
}

/// Every load takes 7 virtual ms: off the grid of a 2 ms poll slice, so a
/// polled wait could not end at the instants the test expects.
class SevenMsSource final : public dms::DataSource {
 public:
  util::ByteBuffer load(const dms::DataItemName& /*name*/) override {
    util::clock_sleep(std::chrono::milliseconds(7));
    util::ByteBuffer bytes;
    bytes.write<std::uint64_t>(42);
    return bytes;
  }
  std::uint64_t item_bytes(const dms::DataItemName& /*name*/) const override { return 8; }
  std::uint64_t file_bytes(const dms::DataItemName& /*name*/) const override { return 8; }
  std::string file_key(const dms::DataItemName& name) const override { return name.canonical(); }
  std::vector<std::pair<dms::DataItemName, util::ByteBuffer>> load_file(
      const dms::DataItemName& name) override {
    return {{name, load(name)}};
  }
};

TEST(DstEventWaitTest, DemandJoinsTheInFlightPrefetchAndWakesWhenItLands) {
  // The OBL prefetch of block 1 starts the moment block 0's request queues
  // it (t = 7 ms) and overlaps the 2.5 ms of "compute" on block 0. The
  // demand request for block 1 then joins that load and returns when it
  // lands at t = 14 ms, counted as a useful prefetch.
  GlobalVirtualClock clock;
  dms::DataProxyConfig config;
  config.async_prefetch = true;
  config.cache.l1_capacity_bytes = 1 << 20;
  dms::DmsCounters counters;
  {
    dms::DataProxy proxy(config, std::make_shared<dms::DataServer>(),
                         std::make_shared<SevenMsSource>());
    proxy.configure_prefetcher("obl", core::make_block_successor(proxy.resolver(), 4, 1));
    (void)proxy.request(dms::block_item("dst", 0, 0));
    EXPECT_EQ(clock->now_ns(), 7 * kMs);
    clock->sleep_for(std::chrono::microseconds(2500));
    (void)proxy.request(dms::block_item("dst", 0, 1));
    EXPECT_EQ(clock->now_ns(), 14 * kMs);
    proxy.quiesce();  // block 2, queued by the second request
    EXPECT_EQ(clock->now_ns(), 21 * kMs);
    counters = proxy.stats().snapshot();
  }
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.inflight_waits, 1u);
  EXPECT_EQ(counters.prefetch_issued, 2u);
  EXPECT_EQ(counters.prefetch_useful, 1u);
}

TEST(DstEventWaitTest, ClientSendWakesTheSchedulerAtOnce) {
  // Backend::connect() links ring the scheduler's nudger on every send, so
  // a request submitted at 7 ms is dispatched, run (it takes no virtual
  // time) and answered at 7 ms, and the driver reads the answer at its
  // next 1 ms poll. A scheduler that waited out its idle_poll slice first
  // would answer a poll later.
  sim::Scenario scenario;
  scenario.seed = 5;
  scenario.workers = 1;
  sim::DstRequest request;
  request.width = 1;
  request.partials = 1;
  request.submit_at_ms = 7;
  scenario.requests.push_back(request);

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_TRUE(result.terminals.at(1).success);
  EXPECT_EQ(result.terminals.at(1).at_ns, 8 * kMs);
}

// --- Scenario encoding -------------------------------------------------------

TEST(DstScenarioTest, StringRoundtripIsIdentity) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 9001ULL}) {
    const sim::Scenario scenario = sim::generate_scenario(seed);
    const std::string text = scenario.to_string();
    const auto parsed = sim::Scenario::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->to_string(), text);
  }
}

// --- Determinism -------------------------------------------------------------

TEST(DstDeterminismTest, SameSeedReplaysIdenticalTrajectory) {
  for (const std::uint64_t seed : {1ULL, 3ULL, 11ULL, 29ULL, 64ULL}) {
    const sim::Scenario scenario = sim::generate_scenario(seed);
    const auto first = sim::run_scenario(scenario);
    const auto second = sim::run_scenario(scenario);
    EXPECT_EQ(first.trajectory_hash, second.trajectory_hash) << "seed " << seed;
    EXPECT_EQ(first.transport_events, second.transport_events) << "seed " << seed;
    EXPECT_EQ(first.context_switches, second.context_switches) << "seed " << seed;
    EXPECT_EQ(first.virtual_end_ns, second.virtual_end_ns) << "seed " << seed;
    EXPECT_EQ(first.completed, second.completed) << "seed " << seed;
  }
}

TEST(DstDeterminismTest, DifferentSeedsDiverge) {
  // Not a hard guarantee for any pair, but across three seeds at least two
  // distinct trajectories is the absolute minimum sanity bar.
  const auto a = sim::run_scenario(sim::generate_scenario(5));
  const auto b = sim::run_scenario(sim::generate_scenario(6));
  const auto c = sim::run_scenario(sim::generate_scenario(8));
  EXPECT_TRUE(a.trajectory_hash != b.trajectory_hash ||
              b.trajectory_hash != c.trajectory_hash);
}

// --- Oracles over a seed sweep ----------------------------------------------

TEST(DstOracleTest, FuzzSweepPassesAllOracles) {
  sim::FuzzOptions options;
  options.first_seed = 1;
  options.count = 40;
  options.verify_every = 10;
  options.shrink_failures = true;
  const auto report = sim::run_fuzz(options);
  EXPECT_EQ(report.scenarios_run, 40);
  EXPECT_EQ(report.determinism_checks, 4);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << "seed " << failure.seed << " violated: "
                  << (failure.violations.empty() ? "?" : failure.violations.front())
                  << "\n  scenario: " << failure.scenario
                  << (failure.shrunk.empty() ? "" : "\n  shrunk: " + failure.shrunk);
  }
  for (const auto seed : report.nondeterministic_seeds) {
    ADD_FAILURE() << "seed " << seed << " replayed with a different trajectory hash";
  }
}

// --- Targeted fault behavior -------------------------------------------------

TEST(DstFaultTest, CommandFailureSurfacesErrorToClient) {
  sim::Scenario scenario;
  scenario.seed = 77;
  scenario.workers = 2;
  sim::DstRequest request;
  request.width = 2;
  request.partials = 2;
  request.fail_rank = 1;  // rank 1 of the group throws mid-command
  scenario.requests.push_back(request);
  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.completed, 1);
  EXPECT_EQ(result.succeeded, 0);
  EXPECT_EQ(result.failed, 1);
}

TEST(DstFaultTest, WorkerKillIsRecoveredByRetry) {
  sim::Scenario scenario;
  scenario.seed = 1234;
  scenario.workers = 3;
  scenario.request_timeout_ms = 400;
  scenario.kills.push_back({20, 1});  // kill rank 1 at virtual 20ms
  sim::DstRequest request;
  request.width = 2;
  request.partials = 3;
  request.item_sleep_us = 20000;  // long enough that the kill lands mid-attempt
  request.dms_items = 2;
  scenario.requests.push_back(request);
  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.ranks_killed, 1u);
  EXPECT_EQ(result.completed, 1);
  // Two workers survive and the width-2 request is retried onto them.
  EXPECT_EQ(result.succeeded, 1);
  EXPECT_EQ(result.degraded, 1);
}

TEST(DstFaultTest, IdleBeatOvertakingADelayedDoneReportCostsNoRetry) {
  // Rank 1 is driven by hand. It finishes its order 60 ms after dispatch,
  // past the 50 ms idle grace, then beats "idle" every 10 ms while its done
  // report is held back 30 ms, as a delaying transport may do. The
  // scheduler must wait for the report, not abandon the finished group.
  GlobalVirtualClock clock;
  auto transport = std::make_shared<comm::InProcTransport>(2);
  core::SchedulerConfig config;
  config.idle_grace = std::chrono::milliseconds(50);
  core::Scheduler scheduler(transport, 1, std::make_shared<dms::DataServer>(), config);
  auto [client, server_side] = comm::make_inproc_link_pair(scheduler.nudger());
  scheduler.attach_client(server_side);
  std::thread loop = util::spawn_thread("sched", [&] { scheduler.run(); });

  comm::Communicator rank1(transport, 1);
  const auto send = [&](int tag, const auto& body) {
    util::ByteBuffer payload;
    body.serialize(payload);
    rank1.send(0, tag, std::move(payload));
  };
  const auto beat = [&](std::uint64_t current, int times) {
    for (int n = 0; n < times; ++n) {
      send(core::kTagHeartbeat, core::Heartbeat{1, current});
      clock->sleep_for(std::chrono::milliseconds(10));
    }
  };
  comm::Message submit;
  submit.tag = core::kTagSubmit;
  core::CommandRequest{1, "hand.driven", {}, 0}.serialize(submit.payload);
  client->send(std::move(submit));

  if (auto order = rank1.try_recv(0, core::kTagExecute, std::chrono::milliseconds(100))) {
    const std::uint64_t id = core::ExecuteOrder::deserialize(order->payload).request_id;
    beat(id, 6);  // executing
    util::ByteBuffer fragment;  // an empty final result
    core::FragmentHeader{id, 0, 0}.serialize(fragment);
    fragment.write<std::uint64_t>(0);
    rank1.send(0, core::kTagFinalResult, std::move(fragment));
    beat(0, 3);  // finished; the done report is still on the wire
    send(core::kTagWorkerDone, core::WorkerReport{id, 1, true, "", {}, 1});
    clock->sleep_for(std::chrono::milliseconds(100));
  }
  scheduler.stop();
  clock->join_thread(loop);
  EXPECT_EQ(scheduler.total_retries(), 0u) << "the finished group was abandoned";
  EXPECT_EQ(scheduler.active_groups() + scheduler.queued_requests(), 0u)
      << "the request never completed";
}

// --- Pipelined executor under DST --------------------------------------------

TEST(DstPipelineTest, AsyncExecutorIsDeterministicAndPassesOracles) {
  // Pool threads run under the virtual clock (announced participants), so
  // the overlapped load path must replay bit-identically and satisfy the
  // async accounting oracle (all submissions settle, peak in-flight bytes
  // bounded by window + pool threads).
  sim::Scenario scenario;
  scenario.seed = 4242;
  scenario.workers = 3;
  scenario.pipeline_threads = 2;
  scenario.pipeline_window = 3;
  sim::DstRequest request;
  request.width = 3;
  request.partials = 3;
  request.dms_items = 4;
  request.item_sleep_us = 500;
  scenario.requests.push_back(request);

  const auto first = sim::run_scenario(scenario);
  EXPECT_TRUE(first.ok()) << (first.violations.empty() ? "" : first.violations.front());
  EXPECT_EQ(first.succeeded, 1);

  const auto second = sim::run_scenario(scenario);
  EXPECT_EQ(first.trajectory_hash, second.trajectory_hash);
  EXPECT_EQ(first.virtual_end_ns, second.virtual_end_ns);
  EXPECT_EQ(first.context_switches, second.context_switches);
}

TEST(DstPipelineTest, KillCancelsQueuedLoadsWithBalancedAccounting) {
  // A worker dies while its pipeline has loads queued and in flight. The
  // async oracle then requires every submitted load to settle anyway —
  // queued ones via cancellation (the dropped callable releases its
  // in-flight token), running ones by completing — and the retry on the
  // survivors must still succeed.
  sim::Scenario scenario;
  scenario.seed = 9001;
  scenario.workers = 3;
  scenario.request_timeout_ms = 400;
  scenario.pipeline_threads = 1;
  scenario.pipeline_window = 4;
  scenario.kills.push_back({20, 1});
  sim::DstRequest request;
  request.width = 2;
  request.partials = 3;
  request.dms_items = 3;
  request.item_sleep_us = 20000;  // the kill lands mid-attempt
  scenario.requests.push_back(request);

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.ranks_killed, 1u);
  EXPECT_EQ(result.completed, 1);
  EXPECT_EQ(result.succeeded, 1);
  EXPECT_EQ(result.degraded, 1);
}

TEST(DstPipelineTest, PipelineKnobsRoundTripThroughScenarioString) {
  sim::Scenario scenario;
  scenario.pipeline_threads = 2;
  scenario.pipeline_window = 7;
  scenario.requests.push_back(sim::DstRequest{});
  const auto reparsed = sim::Scenario::parse(scenario.to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->pipeline_threads, 2);
  EXPECT_EQ(reparsed->pipeline_window, 7);
  EXPECT_EQ(reparsed->to_string(), scenario.to_string());
}

// --- Result cache under DST --------------------------------------------------
// Virtual-time coverage of core::ResultCache behind the scheduler: repeat
// queries replay without a work group, dataset-version bumps invalidate,
// and a cancel racing a cache hit still answers exactly once.

TEST(DstResultCacheTest, RepeatQueryIsServedFromCacheWithoutRecompute) {
  sim::Scenario scenario;
  scenario.seed = 41001;
  scenario.workers = 2;
  scenario.result_cache_kb = 64;
  sim::DstRequest original;
  original.partials = 2;
  original.dms_items = 2;
  original.item_sleep_us = 20000;  // >= 80 ms of virtual compute per run
  scenario.requests.push_back(original);
  sim::DstRequest repeat = original;
  repeat.submit_at_ms = 300;  // well after the original completed
  scenario.requests.push_back(repeat);

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(result.cache_hits, 1);
  const auto& first = result.terminals.at(1);
  const auto& second = result.terminals.at(2);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.success);
  EXPECT_EQ(second.data_version, 1u);
  // The replay skips the compute entirely: its virtual latency is polling
  // overhead, nowhere near the original's sleep-driven runtime.
  const std::int64_t original_latency = first.at_ns;
  const std::int64_t replay_latency = second.at_ns - 300'000'000;
  EXPECT_GE(original_latency, 40'000'000);
  EXPECT_LT(replay_latency, 20'000'000);
}

TEST(DstResultCacheTest, VersionBumpInvalidatesBeforeTheRepeat) {
  sim::Scenario scenario;
  scenario.seed = 41002;
  scenario.workers = 2;
  scenario.result_cache_kb = 64;
  scenario.bumps.push_back(150);  // after the original, before the repeat
  sim::DstRequest original;
  original.partials = 2;
  original.dms_items = 1;
  original.item_sleep_us = 5000;
  scenario.requests.push_back(original);
  sim::DstRequest repeat = original;
  repeat.submit_at_ms = 300;
  scenario.requests.push_back(repeat);

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(result.cache_hits, 0) << "a bumped dataset version must not replay stale results";
  EXPECT_EQ(result.terminals.at(1).data_version, 1u);
  EXPECT_EQ(result.terminals.at(2).data_version, 2u);
}

TEST(DstResultCacheTest, CancelRacingACacheHitAnswersExactlyOnce) {
  // Twin of DstQosTest.QueuedCancelAnswersWithinVirtualSecond for the hit
  // path: the cancel lands right as the repeat is being served from the
  // cache. Whatever the interleaving resolves to — hit already streamed
  // (cancel is a no-op) or cancel got there first (request fails from the
  // queue) — the terminal-answer and replay-identical oracles must hold.
  sim::Scenario scenario;
  scenario.seed = 41003;
  scenario.workers = 1;
  scenario.result_cache_kb = 64;
  sim::DstRequest original;
  original.partials = 2;
  original.item_sleep_us = 10000;
  scenario.requests.push_back(original);
  sim::DstRequest repeat = original;
  repeat.submit_at_ms = 200;
  repeat.cancel_at_ms = 200;  // same tick: maximally racy
  scenario.requests.push_back(repeat);

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.completed, 2);
  ASSERT_EQ(result.terminals.count(2), 1u);
  const auto& repeat_terminal = result.terminals.at(2);
  // Either outcome is legal, but a served hit must be a clean success and a
  // cancelled request must be a clean failure — never a hybrid.
  if (repeat_terminal.cache_hit) {
    EXPECT_TRUE(repeat_terminal.success);
  }
}

TEST(DstResultCacheTest, CacheKnobsRoundTripThroughScenarioString) {
  sim::Scenario scenario;
  scenario.result_cache_kb = 48;
  scenario.bumps = {120, 450};
  scenario.requests.push_back(sim::DstRequest{});
  const auto reparsed = sim::Scenario::parse(scenario.to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->result_cache_kb, 48);
  EXPECT_EQ(reparsed->bumps, (std::vector<int>{120, 450}));
  EXPECT_EQ(reparsed->to_string(), scenario.to_string());
}

// --- QoS scheduling under DST ------------------------------------------------
// Virtual-time twins of the SchedulerQos cases in core_test.cpp: the same
// behaviors, but with exact (deterministic) completion times to assert on.

TEST(DstQosTest, QueuedCancelAnswersWithinVirtualSecond) {
  // One worker, a 2-virtual-second blocker, and a queued request cancelled
  // 10 ms after submission. The cancel must answer from the queue — the
  // acceptance bound is < 1 s of virtual time, nowhere near the blocker.
  sim::Scenario scenario;
  scenario.seed = 31001;
  scenario.workers = 1;
  sim::DstRequest blocker;
  blocker.width = 1;
  blocker.partials = 4;
  blocker.item_sleep_us = 500000;  // 4 x 0.5 s = 2 s virtual
  scenario.requests.push_back(blocker);
  sim::DstRequest cancelled;
  cancelled.width = 1;
  cancelled.partials = 1;
  cancelled.submit_at_ms = 10;
  cancelled.cancel_at_ms = 20;
  scenario.requests.push_back(cancelled);

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(result.failed, 1);  // the cancelled request answers with an error
  const auto& cancelled_terminal = result.terminals.at(2);
  const auto& blocker_terminal = result.terminals.at(1);
  EXPECT_FALSE(cancelled_terminal.success);
  EXPECT_LT(cancelled_terminal.at_ns, 1'000'000'000) << "cancel rode out the blocker";
  EXPECT_LT(cancelled_terminal.at_ns, blocker_terminal.at_ns);
}

TEST(DstQosTest, FairShareBeatsFifoForNarrowClient) {
  // Client 0 streams three wide requests; client 1 submits one narrow one
  // just after. Same workload under both disciplines: fair share must
  // answer the narrow client strictly earlier than the seed FIFO, and the
  // molding that makes room must be recorded in the stats.
  sim::Scenario scenario;
  scenario.seed = 31002;
  scenario.workers = 4;
  scenario.clients = 2;
  for (int i = 0; i < 3; ++i) {
    sim::DstRequest wide;
    wide.width = 4;
    wide.partials = 4;
    wide.item_sleep_us = 100000;  // ~400 ms virtual each
    wide.submit_at_ms = i;
    wide.client = 0;
    scenario.requests.push_back(wide);
  }
  sim::DstRequest narrow;
  narrow.width = 1;
  narrow.partials = 1;
  narrow.item_sleep_us = 1000;
  narrow.submit_at_ms = 5;
  narrow.client = 1;
  scenario.requests.push_back(narrow);

  scenario.qos_fair = true;
  const auto fair = sim::run_scenario(scenario);
  EXPECT_TRUE(fair.ok()) << (fair.violations.empty() ? "" : fair.violations.front());
  scenario.qos_fair = false;
  const auto fifo = sim::run_scenario(scenario);
  EXPECT_TRUE(fifo.ok()) << (fifo.violations.empty() ? "" : fifo.violations.front());

  EXPECT_LT(fair.terminals.at(4).at_ns, fifo.terminals.at(4).at_ns);
  EXPECT_GE(fair.backfills, 1u);
  EXPECT_EQ(fifo.backfills, 0u);
  bool molded = false;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto& terminal = fair.terminals.at(id);
    EXPECT_TRUE(terminal.success);
    molded = molded || terminal.workers < terminal.requested_workers;
  }
  EXPECT_TRUE(molded) << "no wide request was molded below its requested width";
}

TEST(DstQosTest, AgingBoundHoldsUnderNarrowFlood) {
  // Two pinned workers leave one free; client 0's wide request heads the
  // queue (molds to the 2-worker share, cannot fit) while client 1 floods
  // narrow work. Backfilling may bypass the head only max_head_bypass
  // times; the no-starvation oracle checks the bound, and the wide request
  // must still complete once the pins drain.
  sim::Scenario scenario;
  scenario.seed = 31003;
  scenario.workers = 3;
  scenario.clients = 2;
  scenario.head_bypass = 2;
  for (int client = 0; client < 2; ++client) {
    sim::DstRequest pin;
    pin.width = 1;
    pin.partials = 4;
    pin.item_sleep_us = 100000;  // ~400 ms virtual
    pin.client = client;
    scenario.requests.push_back(pin);
  }
  sim::DstRequest wide;
  wide.width = 3;
  wide.partials = 1;
  wide.item_sleep_us = 1000;
  wide.submit_at_ms = 5;
  wide.client = 0;
  scenario.requests.push_back(wide);
  for (int i = 0; i < 6; ++i) {
    sim::DstRequest flood;
    flood.width = 1;
    flood.partials = 1;
    flood.item_sleep_us = 10000;
    flood.submit_at_ms = 10 + 2 * i;
    flood.client = 1;
    scenario.requests.push_back(flood);
  }

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.completed, static_cast<int>(scenario.requests.size()));
  EXPECT_EQ(result.succeeded, static_cast<int>(scenario.requests.size()));
  EXPECT_GE(result.backfills, 1u);
  EXPECT_LE(result.max_head_bypass_seen, scenario.head_bypass);
  EXPECT_TRUE(result.terminals.at(3).success);
}

TEST(DstQosTest, AdmissionRejectsBeyondQueueBound) {
  // Per-client bound of one queued request: behind the blocker, the first
  // submission queues and the next two are refused with kTagRejected —
  // which the terminal-answer and rejection-integrity oracles then audit.
  sim::Scenario scenario;
  scenario.seed = 31004;
  scenario.workers = 1;
  scenario.max_queue = 1;
  sim::DstRequest blocker;
  blocker.width = 1;
  blocker.partials = 4;
  blocker.item_sleep_us = 100000;
  scenario.requests.push_back(blocker);
  for (int i = 0; i < 3; ++i) {
    sim::DstRequest burst;
    burst.width = 1;
    burst.partials = 1;
    burst.submit_at_ms = 10 + 2 * i;
    scenario.requests.push_back(burst);
  }

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.rejected, 2);
  EXPECT_EQ(result.completed, 2);
  EXPECT_TRUE(result.terminals.at(1).success);
  EXPECT_TRUE(result.terminals.at(2).success);
  EXPECT_TRUE(result.terminals.at(3).rejected);
  EXPECT_TRUE(result.terminals.at(4).rejected);
}

TEST(DstQosTest, QosKnobsRoundTripThroughScenarioString) {
  sim::Scenario scenario;
  scenario.clients = 2;
  scenario.qos_fair = false;
  scenario.max_queue = 3;
  scenario.head_bypass = 5;
  sim::DstRequest request;
  request.client = 1;
  request.cancel_at_ms = 17;
  scenario.requests.push_back(request);
  const auto reparsed = sim::Scenario::parse(scenario.to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->clients, 2);
  EXPECT_FALSE(reparsed->qos_fair);
  EXPECT_EQ(reparsed->max_queue, 3);
  EXPECT_EQ(reparsed->head_bypass, 5);
  ASSERT_EQ(reparsed->requests.size(), 1u);
  EXPECT_EQ(reparsed->requests[0].client, 1);
  EXPECT_EQ(reparsed->requests[0].cancel_at_ms, 17);
  EXPECT_EQ(reparsed->to_string(), scenario.to_string());
}

// --- Sharded DMS under DST (DESIGN.md §12) -----------------------------------

TEST(DstShardTest, ShardKnobsRoundTripThroughScenarioString) {
  sim::Scenario scenario;
  scenario.shards = 3;
  scenario.repl = 2;
  scenario.requests.push_back(sim::DstRequest{});
  const auto reparsed = sim::Scenario::parse(scenario.to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->shards, 3);
  EXPECT_EQ(reparsed->repl, 2);
  EXPECT_EQ(reparsed->to_string(), scenario.to_string());

  // Pre-shard scenario strings (no shards=/repl= keys) parse to the legacy
  // central path, so every recorded repro stays replayable.
  std::string legacy = scenario.to_string();
  const auto pos = legacy.find(";shards=3;repl=2");
  ASSERT_NE(pos, std::string::npos);
  legacy.erase(pos, std::string(";shards=3;repl=2").size());
  const auto old_format = sim::Scenario::parse(legacy);
  ASSERT_TRUE(old_format.has_value());
  EXPECT_EQ(old_format->shards, 1);
  EXPECT_EQ(old_format->repl, 1);
}

TEST(DstShardTest, FaultFreeShardedRunServesPeersWithoutRetries) {
  // Regression for the communicator pump-slice bug: the peer service thread
  // pumping a worker's communicator used to delay kTagExecute delivery by a
  // full 50ms transport wait — past the 40ms idle grace below — so even a
  // fault-free sharded run retried its request. Deterministic replay: any
  // reappearance of that delivery latency shows up here as degraded != 0.
  sim::Scenario scenario;
  scenario.seed = 7;
  scenario.workers = 3;
  scenario.shards = 3;
  scenario.repl = 2;
  scenario.l1_bytes = 64 * 1024;
  scenario.item_count = 16;
  scenario.idle_grace_ms = 40;
  sim::DstRequest request;
  request.partials = 2;
  request.dms_items = 8;
  scenario.requests.push_back(request);

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.completed, 1);
  EXPECT_EQ(result.succeeded, 1);
  EXPECT_EQ(result.degraded, 0) << "a fault-free sharded run must not retry";
  EXPECT_GT(result.peer_fetches, 0u);
  EXPECT_GT(result.peer_pushes, 0u);
}

TEST(DstShardTest, ReplicaFailoverCoversKilledRankWithoutDiskRespill) {
  // The acceptance scenario: R=2 over two owner shards, warm the replicas,
  // kill one owner, then run a wide request whose non-owner member must
  // fetch every block. Blocks whose primary died re-serve from the
  // surviving replica (dms.replica_promotions), and nothing respills from
  // disk after the kill — the replica-consistency oracle checks the bytes.
  sim::Scenario scenario;
  scenario.seed = 4242;
  scenario.workers = 3;
  scenario.shards = 2;  // owners are proxies 0 and 1
  scenario.repl = 2;    // every block lives on both
  scenario.l1_bytes = 64 * 1024;
  scenario.item_count = 8;
  scenario.kills.push_back({250, 1});  // rank 1 = proxy 0, after the warmup

  sim::DstRequest warmup;  // loads every block, seeding both owner replicas
  warmup.width = 1;
  warmup.partials = 2;
  warmup.dms_items = 8;
  scenario.requests.push_back(warmup);

  sim::DstRequest wide;  // after the kill: survivors are proxies 1 and 2
  wide.width = 2;
  wide.partials = 2;
  wide.dms_items = 8;
  wide.submit_at_ms = 600;
  scenario.requests.push_back(wide);

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.ranks_killed, 1u);
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(result.succeeded, 2);
  EXPECT_GT(result.peer_pushes, 0u) << "warmup never replicated its loads";
  EXPECT_GT(result.replica_promotions, 0u)
      << "no block was ever served by a promoted surviving replica";
  EXPECT_EQ(result.peer_fallback_disk_after_kill, 0u)
      << "replica-covered blocks respilled from disk after the kill";
}

TEST(DstShardTest, KillDuringPeerFetchIsRecovered) {
  // The kill lands while the wide request is actively peer-fetching (long
  // per-item compute keeps the group mid-flight). Whatever instant the
  // fetch is interrupted at, the oracles must hold and the request must
  // still complete via retry or replica failover.
  sim::Scenario scenario;
  scenario.seed = 777;
  scenario.workers = 3;
  scenario.shards = 2;
  scenario.repl = 2;
  scenario.l1_bytes = 64 * 1024;
  scenario.item_count = 8;
  scenario.request_timeout_ms = 2000;
  scenario.kills.push_back({30, 1});  // mid-attempt
  sim::DstRequest request;
  request.width = 2;
  request.partials = 3;
  request.dms_items = 8;
  request.item_sleep_us = 20000;
  scenario.requests.push_back(request);

  const auto result = sim::run_scenario(scenario);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations.front());
  EXPECT_EQ(result.ranks_killed, 1u);
  EXPECT_EQ(result.completed, 1);
  EXPECT_EQ(result.succeeded, 1);
}

// --- Shrinker ----------------------------------------------------------------

TEST(DstShrinkTest, MinimizesInjectedExactlyOnceViolation) {
  // Deliberately broken stack: fragment dedup off on a duplicating
  // transport. The exactly-once oracle must fire, and the shrinker must
  // hand back a smaller scenario that still fires it, bit-reproducibly.
  sim::Scenario scenario = sim::generate_scenario(7);
  scenario.fragment_dedup = false;
  scenario.duplicate_rate = 0.35;
  scenario.drop_rate = 0.0;
  scenario.delay_rate = 0.0;
  scenario.request_timeout_ms = 0;
  scenario.kills.clear();
  scenario.requests.clear();
  for (int i = 0; i < 2; ++i) {
    sim::DstRequest request;
    request.partials = 4;
    request.payload = 64;
    request.submit_at_ms = i * 20;
    scenario.requests.push_back(request);
  }

  const auto broken = sim::run_scenario(scenario);
  ASSERT_FALSE(broken.ok());
  EXPECT_NE(broken.violations.front().find("exactly-once"), std::string::npos)
      << broken.violations.front();

  const auto shrunk = sim::shrink_scenario(scenario, /*max_attempts=*/100);
  EXPECT_FALSE(shrunk.failure.ok());
  EXPECT_GT(shrunk.accepted, 0);
  EXPECT_LE(shrunk.minimal.requests.size(), scenario.requests.size());

  // The minimal scenario must replay its violation bit-identically from the
  // replayable string alone.
  const auto reparsed = sim::Scenario::parse(shrunk.minimal.to_string());
  ASSERT_TRUE(reparsed.has_value());
  const auto replay = sim::run_scenario(*reparsed);
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.trajectory_hash, shrunk.failure.trajectory_hash);
}

}  // namespace
}  // namespace vira
