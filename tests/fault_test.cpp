#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <utility>
#include <vector>

#include "algo/cfd_command.hpp"
#include "comm/fault_transport.hpp"
#include "core/backend.hpp"
#include "grid/synthetic.hpp"
#include "test_util.hpp"
#include "viz/session.hpp"

namespace va = vira::algo;
namespace vc = vira::core;
namespace vg = vira::grid;
namespace vm = vira::comm;
namespace vu = vira::util;
namespace vv = vira::viz;

namespace {

vm::Message tagged(int source, int tag, const std::string& text) {
  vm::Message msg;
  msg.source = source;
  msg.tag = tag;
  msg.payload.write_string(text);
  return msg;
}

// ---------------------------------------------------------------------------
// FaultInjectingTransport decorator semantics
// ---------------------------------------------------------------------------

TEST(FaultTransport, ZeroRatesArePurePassThrough) {
  auto inner = std::make_shared<vm::InProcTransport>(2);
  vm::FaultInjectingTransport transport(inner, vm::FaultInjectionConfig{});

  transport.send(1, tagged(0, 7, "hello"));
  auto msg = transport.recv(1, std::chrono::milliseconds(200));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->source, 0);
  EXPECT_EQ(msg->tag, 7);
  EXPECT_EQ(msg->payload.read_string(), "hello");
  // Nothing else shows up.
  EXPECT_FALSE(transport.recv(1, std::chrono::milliseconds(20)).has_value());

  const auto stats = transport.stats();
  EXPECT_EQ(stats.forwarded, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.duplicated, 0u);
  EXPECT_EQ(stats.delayed, 0u);
  EXPECT_EQ(stats.suppressed_dead, 0u);
}

TEST(FaultTransport, DropRateOneLosesEveryMessage) {
  auto inner = std::make_shared<vm::InProcTransport>(2);
  vm::FaultInjectionConfig config;
  config.drop_rate = 1.0;
  vm::FaultInjectingTransport transport(inner, config);

  transport.send(1, tagged(0, 1, "gone"));
  transport.send(1, tagged(0, 2, "also gone"));
  EXPECT_FALSE(transport.recv(1, std::chrono::milliseconds(50)).has_value());
  EXPECT_EQ(transport.stats().dropped, 2u);
  EXPECT_EQ(transport.stats().forwarded, 0u);
}

TEST(FaultTransport, DuplicateRateOneDeliversTwice) {
  auto inner = std::make_shared<vm::InProcTransport>(2);
  vm::FaultInjectionConfig config;
  config.duplicate_rate = 1.0;
  vm::FaultInjectingTransport transport(inner, config);

  transport.send(1, tagged(0, 3, "twin"));
  auto first = transport.recv(1, std::chrono::milliseconds(200));
  auto second = transport.recv(1, std::chrono::milliseconds(200));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->payload.read_string(), "twin");
  EXPECT_EQ(second->payload.read_string(), "twin");
  EXPECT_FALSE(transport.recv(1, std::chrono::milliseconds(20)).has_value());
  EXPECT_EQ(transport.stats().duplicated, 1u);

  // A duplicated message's body is shared by both deliveries, not copied.
  auto with_body = tagged(0, 4, "header");
  with_body.body = std::make_shared<const vu::ByteBuffer>(tagged(0, 0, "body").payload);
  const auto body = with_body.body;
  transport.send(1, std::move(with_body));
  auto first_body = transport.recv(1, std::chrono::milliseconds(200));
  auto second_body = transport.recv(1, std::chrono::milliseconds(200));
  ASSERT_TRUE(first_body.has_value());
  ASSERT_TRUE(second_body.has_value());
  EXPECT_EQ(first_body->payload.read_string(), "header");
  EXPECT_EQ(second_body->payload.read_string(), "header");
  EXPECT_EQ(first_body->body.get(), body.get());
  EXPECT_EQ(second_body->body.get(), body.get());
  EXPECT_EQ(transport.stats().duplicated, 2u);
}

TEST(FaultTransport, DelayedMessageStillArrives) {
  auto inner = std::make_shared<vm::InProcTransport>(2);
  vm::FaultInjectionConfig config;
  config.delay_rate = 1.0;
  config.max_delay = std::chrono::milliseconds(10);
  vm::FaultInjectingTransport transport(inner, config);

  transport.send(1, tagged(0, 4, "late"));
  auto msg = transport.recv(1, std::chrono::milliseconds(1000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload.read_string(), "late");
  EXPECT_EQ(transport.stats().delayed, 1u);
  transport.shutdown();
}

TEST(FaultTransport, KilledRankIsIsolatedBothWays) {
  auto inner = std::make_shared<vm::InProcTransport>(3);
  vm::FaultInjectingTransport transport(inner, vm::FaultInjectionConfig{});

  transport.kill_rank(1);
  EXPECT_TRUE(transport.is_dead(1));
  EXPECT_EQ(transport.dead_count(), 1u);

  transport.send(1, tagged(0, 5, "to the dead"));    // towards the corpse
  transport.send(2, tagged(1, 6, "from the dead"));  // from the corpse
  EXPECT_FALSE(transport.recv(1, std::chrono::milliseconds(50)).has_value());
  EXPECT_FALSE(transport.recv(2, std::chrono::milliseconds(50)).has_value());
  EXPECT_EQ(transport.stats().suppressed_dead, 2u);

  // Unaffected pairs still communicate.
  transport.send(2, tagged(0, 7, "alive"));
  auto msg = transport.recv(2, std::chrono::milliseconds(200));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload.read_string(), "alive");
}

TEST(FaultTransport, KillRankValidatesRange) {
  auto inner = std::make_shared<vm::InProcTransport>(2);
  vm::FaultInjectingTransport transport(inner, vm::FaultInjectionConfig{});
  EXPECT_THROW(transport.kill_rank(-1), std::out_of_range);
  EXPECT_THROW(transport.kill_rank(2), std::out_of_range);
}

TEST(FaultTransport, DelayedSendToABadRankThrowsAtTheCall) {
  // Every message draws a delay, so an unchecked destination would only
  // fail on the delay thread, where an exception terminates the process.
  auto inner = std::make_shared<vm::InProcTransport>(2);
  vm::FaultInjectionConfig config;
  config.delay_rate = 1.0;
  vm::FaultInjectingTransport transport(inner, config);
  EXPECT_THROW(transport.send(transport.size(), tagged(0, 8, "nowhere")), std::out_of_range);
  EXPECT_THROW(transport.send(-1, tagged(0, 8, "nowhere")), std::out_of_range);
  // The process survived, and the decorator still delivers.
  transport.send(1, tagged(0, 9, "somewhere"));
  auto msg = transport.recv(1, std::chrono::milliseconds(1000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload.read_string(), "somewhere");
  EXPECT_EQ(transport.stats().delayed, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end failure recovery over a real Backend
// ---------------------------------------------------------------------------

class FaultRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    va::register_builtin_commands();
    dataset_ = (std::filesystem::temp_directory_path() / "vira_fault_ds").string();
    vg::ensure_dataset(dataset_, [] {
      vg::GeneratorConfig config;
      config.directory = dataset_;
      config.timesteps = 2;
      config.ni = 10;
      config.nj = 8;
      config.nk = 6;
      vg::generate_engine(config);
    });
    vg::DatasetReader reader(dataset_);
    float lo = 1e30f;
    float hi = -1e30f;
    for (int b = 0; b < reader.meta().block_count(); ++b) {
      const auto [blo, bhi] = reader.read_block(0, b).scalar_range("density");
      lo = std::min(lo, blo);
      hi = std::max(hi, bhi);
    }
    iso_ = 0.5 * (lo + hi);
  }

  static vu::ParamList iso_params(int workers) {
    vu::ParamList params;
    params.set("dataset", dataset_);
    params.set("field", "density");
    params.set_double("iso", iso_);
    params.set_int("workers", workers);
    return params;
  }

  /// Aggressive liveness settings so recovery fits in a unit test.
  static vc::BackendConfig fast_recovery_config() {
    vc::BackendConfig config;
    config.workers = 4;
    config.worker.heartbeat_interval = std::chrono::milliseconds(10);
    config.scheduler.death_timeout = std::chrono::milliseconds(250);
    config.scheduler.idle_grace = std::chrono::milliseconds(300);
    config.scheduler.retry_backoff = std::chrono::milliseconds(5);
    config.scheduler.max_retries = 3;
    return config;
  }

  /// A fault injector over the in-process rank transport `config` needs.
  static std::shared_ptr<vm::FaultInjectingTransport> injector_for(
      const vc::BackendConfig& config, const vm::FaultInjectionConfig& faults) {
    return std::make_shared<vm::FaultInjectingTransport>(
        std::make_shared<vm::InProcTransport>(config.workers + 1), faults);
  }

  static std::string dataset_;
  static double iso_;
};
std::string FaultRecoveryTest::dataset_;
double FaultRecoveryTest::iso_ = 0.0;

using FragmentKey = std::pair<std::int32_t, std::uint32_t>;

/// Drains `stream` to completion, asserting every (partition, sequence)
/// fragment identity arrives at most once. `on_first_data` runs when the
/// first data packet shows up (the mid-request kill switch).
vc::CommandStats drain_exactly_once(vv::ResultStream& stream, std::set<FragmentKey>* seen,
                                    std::function<void()> on_first_data = {}) {
  vc::CommandStats stats;
  bool complete = false;
  while (!complete) {
    auto packet = stream.next(std::chrono::milliseconds(60000));
    if (!packet.has_value()) {
      ADD_FAILURE() << "stream stalled without a Complete";
      break;
    }
    switch (packet->kind) {
      case vv::Packet::Kind::kPartial:
      case vv::Packet::Kind::kFinal: {
        const FragmentKey key{packet->header.partition, packet->header.sequence};
        EXPECT_TRUE(seen->insert(key).second)
            << "duplicate fragment partition=" << key.first << " seq=" << key.second;
        if (on_first_data) {
          on_first_data();
          on_first_data = {};
        }
        break;
      }
      case vv::Packet::Kind::kComplete:
        stats = packet->stats;
        complete = true;
        break;
      default:
        break;  // progress / error / degraded markers
    }
  }
  return stats;
}

TEST_F(FaultRecoveryTest, WorkerKilledMidRequestStillCompletesExactlyOnce) {
  auto config = fast_recovery_config();
  // Slow the storage down so every worker is still mid-request when the
  // first fragment reaches the client and the kill lands.
  config.read_delay_us_per_mb = 3e6;
  vm::FaultInjectionConfig faults;  // no random faults — only the kill switch
  faults.seed = 42;
  auto injector = injector_for(config, faults);
  vc::Backend backend(config, injector);

  vv::ExtractionSession session(backend.connect());
  auto params = iso_params(3);
  params.set_int("stream_cells", 8);  // many small fragments
  params.set_doubles("viewpoint", {0, 0, 0});
  auto stream = session.submit("iso.viewer", params);

  bool killed = false;
  std::set<FragmentKey> seen;
  const auto stats = drain_exactly_once(*stream, &seen, [&] {
    // The first work group is ranks {1, 2, 3}; rank 3 dies mid-request.
    injector->kill_rank(3);
    killed = true;
  });

  EXPECT_TRUE(killed);
  EXPECT_TRUE(stats.success) << stats.error;
  EXPECT_FALSE(seen.empty());
  EXPECT_GT(stats.retries, 0u);
  EXPECT_TRUE(stats.degraded());
  EXPECT_TRUE(stream->degraded());
  EXPECT_GE(stream->retry_count(), 1u);
  // Death detection runs on the scheduler's own cadence; the client-side
  // Complete can beat the death_timeout expiry, so wait on the predicate
  // instead of asserting instantly.
  EXPECT_TRUE(vira::test::eventually(
      [&] { return backend.scheduler().lost_workers() == 1u; }))
      << "lost=" << backend.scheduler().lost_workers();
  EXPECT_GE(backend.scheduler().total_retries(), 1u);

  // The degraded backend still serves follow-up requests on the survivors.
  std::set<FragmentKey> seen2;
  auto stream2 = session.submit("iso.dataman", iso_params(2));
  const auto stats2 = drain_exactly_once(*stream2, &seen2);
  EXPECT_TRUE(stats2.success) << stats2.error;
  EXPECT_EQ(stats2.retries, 0u);
}

TEST_F(FaultRecoveryTest, ZeroFaultRatesChangeNothing) {
  auto run = [this](bool with_injector) {
    vc::BackendConfig config;
    config.workers = 2;
    std::shared_ptr<vm::FaultInjectingTransport> injector;
    if (with_injector) {
      vm::FaultInjectionConfig faults;  // all rates zero
      // The property must hold for ANY seed; draw it from the printed
      // master seed so a failing run is reproducible from the log line
      // (VIRA_TEST_SEED=<printed>).
      faults.seed = vira::test::test_seed(0xfa17);
      injector = injector_for(config, faults);
    }
    vc::Backend backend(config, injector);
    vv::ExtractionSession session(backend.connect());
    std::vector<vu::ByteBuffer> fragments;
    const auto stats = session.submit("iso.dataman", iso_params(2))->wait(&fragments);
    EXPECT_TRUE(stats.success) << stats.error;
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_FALSE(stats.degraded());
    EXPECT_EQ(backend.scheduler().lost_workers(), 0u);
    if (injector) {
      const auto fstats = injector->stats();
      EXPECT_GT(fstats.forwarded, 0u);
      EXPECT_EQ(fstats.dropped, 0u);
      EXPECT_EQ(fstats.duplicated, 0u);
      EXPECT_EQ(fstats.delayed, 0u);
      EXPECT_EQ(fstats.suppressed_dead, 0u);
    }
    return fragments.size();
  };

  const auto plain = run(false);
  const auto injected = run(true);
  EXPECT_EQ(plain, injected);
  EXPECT_EQ(plain, 1u);
}

TEST_F(FaultRecoveryTest, LossyTransportNeverHangsTheClient) {
  auto config = fast_recovery_config();
  config.scheduler.request_timeout = std::chrono::milliseconds(2000);
  config.scheduler.max_retries = 4;
  vm::FaultInjectionConfig faults;
  faults.seed = 7;
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.05;
  faults.delay_rate = 0.2;
  faults.max_delay = std::chrono::milliseconds(3);
  auto injector = injector_for(config, faults);
  vc::Backend backend(config, injector);

  vv::ExtractionSession session(backend.connect());
  for (int round = 0; round < 3; ++round) {
    std::set<FragmentKey> seen;
    auto stream = session.submit("iso.dataman", iso_params(2));
    // Liveness, not success: under message loss the request must still
    // terminate with a Complete (succeeded or failed after bounded retries),
    // and fragments must stay exactly-once.
    const auto stats = drain_exactly_once(*stream, &seen);
    if (!stats.success) {
      EXPECT_FALSE(stats.error.empty());
    }
  }
  const auto fstats = injector->stats();
  EXPECT_GT(fstats.forwarded, 0u);
}

}  // namespace
