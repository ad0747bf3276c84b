#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "algo/cfd_command.hpp"
#include "core/backend.hpp"
#include "grid/synthetic.hpp"
#include "viz/assembly.hpp"
#include "viz/session.hpp"

namespace va = vira::algo;
namespace vc = vira::core;
namespace vg = vira::grid;
namespace vu = vira::util;
namespace vv = vira::viz;

namespace {

/// Occupies a worker for a fixed time (deterministic queueing tests).
class SleepCommand final : public vc::Command {
 public:
  std::string name() const override { return "test.sleep"; }
  void execute(vc::CommandContext& context) override {
    const auto ms = context.params().get_int("ms", 100);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    if (context.is_master()) {
      context.send_final({});
    }
  }
};

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    va::register_builtin_commands();
    vc::CommandRegistry::global().register_command(
        "test.sleep", [] { return std::make_unique<SleepCommand>(); });
    dataset_ = (std::filesystem::temp_directory_path() / "vira_integration_ds").string();
    vg::ensure_dataset(dataset_, [] {
      vg::GeneratorConfig config;
      config.directory = dataset_;
      config.timesteps = 5;
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

  static std::string dataset_;
  static double iso_;
};
std::string IntegrationTest::dataset_;
double IntegrationTest::iso_ = 0.0;

}  // namespace

// ---------------------------------------------------------------------------
// Client lifecycle resilience
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, BackendSurvivesClientDisconnectMidCommand) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);

  {
    // First client submits and walks away immediately.
    vv::ExtractionSession session(backend.connect());
    (void)session.submit("iso.dataman", iso_params(2));
    session.close();  // drops the link while the command may still run
  }

  // A fresh client can connect and get full service.
  vv::ExtractionSession session2(backend.connect());
  std::vector<vu::ByteBuffer> fragments;
  const auto stats = session2.submit("iso.dataman", iso_params(2))->wait(&fragments);
  EXPECT_TRUE(stats.success) << stats.error;
  EXPECT_EQ(fragments.size(), 1u);
}

TEST_F(IntegrationTest, CancelStopsForwardingPartials) {
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  auto params = iso_params(1);
  params.set_int("stream_cells", 8);  // many fragments
  params.set_doubles("viewpoint", {0, 0, 0});
  auto stream = session.submit("iso.viewer", params);
  session.cancel(stream->request_id());

  // The stream still terminates (with a Complete), and forwarding stopped
  // at some point — we only assert clean termination here since the cancel
  // races the (fast) command.
  bool complete = false;
  std::size_t packets = 0;
  while (!complete) {
    auto packet = stream->next(std::chrono::milliseconds(30000));
    ASSERT_TRUE(packet.has_value());
    complete = packet->kind == vv::Packet::Kind::kComplete;
    ++packets;
  }
  SUCCEED() << packets << " packets before completion";
}

TEST_F(IntegrationTest, QueuedRequestCancelledBeforeStart) {
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  // Occupy the only worker for a while, then queue a request and cancel it
  // before a worker frees up.
  vu::ParamList sleep_params;
  sleep_params.set_int("workers", 1);
  sleep_params.set_int("ms", 300);
  auto running = session.submit("test.sleep", sleep_params);
  auto queued = session.submit("iso.dataman", iso_params(1));
  session.cancel(queued->request_id());

  // The cancelled queued request must still terminate its stream: kTagError
  // ("request cancelled") followed by a failed kTagComplete — wait() returns
  // promptly instead of hanging until its timeout. It must not wait for the
  // running request to finish first (the entry was erased, not dispatched).
  const auto stats = queued->wait(nullptr, std::chrono::milliseconds(10000));
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.error.find("cancelled"), std::string::npos) << stats.error;
  EXPECT_TRUE(running->wait().success);
}

// ---------------------------------------------------------------------------
// Secondary (disk) cache tier through the whole stack
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, SecondaryCacheTierSpillsAndServes) {
  vc::BackendConfig config;
  config.workers = 1;
  // L1 too small for a full step -> forced demotions into L2.
  config.l1_cache_bytes = 300 * 1024;
  config.l2_directory = "<auto>";
  config.l2_cache_bytes = 64ull << 20;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  EXPECT_TRUE(session.submit("iso.dataman", iso_params(1))->wait().success);
  auto counters = backend.dms_counters();
  EXPECT_GT(counters.evictions_l1, 0u);

  // Second run: part of the data comes back from the disk tier.
  EXPECT_TRUE(session.submit("iso.dataman", iso_params(1))->wait().success);
  counters = backend.dms_counters();
  EXPECT_GT(counters.l2_hits, 0u);
}

// ---------------------------------------------------------------------------
// Streaklines (future-work extension)
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, StreaklinesProduceDownstreamDye) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_int("workers", 2);
  params.set_doubles("seeds", {0.01, 0.0, 0.06, -0.01, 0.0, 0.05});
  params.set_int("step0", 0);
  params.set_int("step1", 4);
  params.set_int("releases_per_step", 2);
  params.set_double("tolerance", 1e-4);

  auto stream = session.submit("streaklines.dataman", params);
  vv::GeometryCollector collector;
  vc::CommandStats stats;
  while (true) {
    auto packet = stream->next(std::chrono::milliseconds(60000));
    ASSERT_TRUE(packet.has_value());
    if (packet->kind == vv::Packet::Kind::kComplete) {
      stats = packet->stats;
      break;
    }
    collector.consume(*packet);
  }
  ASSERT_TRUE(stats.success) << stats.error;
  ASSERT_EQ(collector.lines().line_count(), 2u);
  // A streak has one sample per surviving release; with 4 intervals x 2
  // releases at least a few particles must survive.
  EXPECT_GE(collector.lines().total_points(), 4u);
  // Ages (stored as times) decrease monotonically? They are stored newest
  // first: age increases along the line.
  for (std::size_t l = 0; l < collector.lines().line_count(); ++l) {
    const auto ages = collector.lines().line_times(l);
    for (std::size_t n = 1; n < ages.size(); ++n) {
      EXPECT_GE(ages[n], ages[n - 1] - 1e-12);
    }
  }
}

TEST_F(IntegrationTest, StreaklineDiffersFromPathline) {
  // In an unsteady flow the streak through a point differs from the path
  // of the first particle released there.
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_int("workers", 1);
  params.set_doubles("seeds", {0.012, 0.004, 0.06});
  params.set_int("step0", 0);
  params.set_int("step1", 4);
  params.set_double("tolerance", 1e-4);

  auto streak_stream = session.submit("streaklines.dataman", params);
  vv::GeometryCollector streak;
  while (true) {
    auto packet = streak_stream->next(std::chrono::milliseconds(60000));
    ASSERT_TRUE(packet.has_value());
    if (packet->kind == vv::Packet::Kind::kComplete) {
      ASSERT_TRUE(packet->stats.success) << packet->stats.error;
      break;
    }
    streak.consume(*packet);
  }

  auto path_stream = session.submit("pathlines.dataman", params);
  vv::GeometryCollector path;
  while (true) {
    auto packet = path_stream->next(std::chrono::milliseconds(60000));
    ASSERT_TRUE(packet.has_value());
    if (packet->kind == vv::Packet::Kind::kComplete) {
      ASSERT_TRUE(packet->stats.success) << packet->stats.error;
      break;
    }
    path.consume(*packet);
  }

  ASSERT_EQ(streak.lines().line_count(), 1u);
  ASSERT_EQ(path.lines().line_count(), 1u);
  const auto streak_points = streak.lines().line(0);
  const auto path_points = path.lines().line(0);
  ASSERT_GE(streak_points.size(), 2u);
  ASSERT_GE(path_points.size(), 2u);
  // End of the streak (oldest dye) coincides with the pathline's end
  // position of the first released particle — but intermediate geometry
  // differs in an unsteady flow. Compare overall extent as a cheap proxy.
  const double streak_span = (streak_points.front() - streak_points.back()).norm();
  const double path_span = (path_points.front() - path_points.back()).norm();
  EXPECT_GT(streak_span + path_span, 0.0);
}

// ---------------------------------------------------------------------------
// Exploration session pattern (the paper's Sec. 1.1 trial-and-error loop)
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, ParameterStudyGetsFasterAfterFirstQuery) {
  vc::BackendConfig config;
  config.workers = 2;
  config.read_delay_us_per_mb = 200000.0;  // pretend the file server is slow
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  std::vector<double> runtimes;
  std::vector<std::uint64_t> misses_per_query;
  std::uint64_t previous_misses = 0;
  for (int query = 0; query < 4; ++query) {
    auto params = iso_params(2);
    params.set_double("iso", iso_ * (0.96 + 0.02 * query));  // user adjusts the value
    const auto stats = session.submit("iso.dataman", params)->wait();
    ASSERT_TRUE(stats.success);
    runtimes.push_back(stats.total_runtime);
    const auto misses = backend.dms_counters().misses;
    misses_per_query.push_back(misses - previous_misses);
    previous_misses = misses;
  }
  // The cold first query paid the I/O (some of its 23 blocks may have been
  // served by a racing OBL prefetch — those count as hits); every follow-up
  // ran entirely on cached raw data, deterministically miss-free. Wall-clock
  // ratios are NOT asserted: under sanitizers the scheduler's polling noise
  // dwarfs the artificial read delay.
  EXPECT_GT(misses_per_query[0], 0u);
  EXPECT_LE(misses_per_query[0], 23u);
  for (std::size_t q = 1; q < misses_per_query.size(); ++q) {
    EXPECT_EQ(misses_per_query[q], 0u) << "query " << q;
    EXPECT_GT(runtimes[q], 0.0);
  }
  const auto counters = backend.dms_counters();
  EXPECT_GT(counters.l1_hits, counters.misses);
}

// ---------------------------------------------------------------------------
// Streamed geometry over real TCP
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, StreamedVortexOverTcpMatchesInProcess) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);

  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_double("iso", -0.5);
  params.set_int("workers", 2);
  params.set_int("stream_cells", 64);

  // In-process reference.
  vv::GeometryCollector reference;
  {
    vv::ExtractionSession session(backend.connect());
    auto stream = session.submit("vortex.streamed", params);
    while (true) {
      auto packet = stream->next(std::chrono::milliseconds(60000));
      ASSERT_TRUE(packet.has_value());
      if (packet->kind == vv::Packet::Kind::kComplete) {
        ASSERT_TRUE(packet->stats.success) << packet->stats.error;
        break;
      }
      reference.consume(*packet);
    }
  }

  // Same command over a real TCP loopback connection.
  const auto port = backend.serve_tcp();
  auto link = vira::comm::tcp_connect("127.0.0.1", port);
  vv::ExtractionSession session(std::shared_ptr<vira::comm::ClientLink>(link.release()));
  vv::GeometryCollector over_tcp;
  auto stream = session.submit("vortex.streamed", params);
  while (true) {
    auto packet = stream->next(std::chrono::milliseconds(60000));
    ASSERT_TRUE(packet.has_value());
    if (packet->kind == vv::Packet::Kind::kComplete) {
      ASSERT_TRUE(packet->stats.success) << packet->stats.error;
      EXPECT_GT(packet->stats.partial_packets, 0u);
      break;
    }
    over_tcp.consume(*packet);
  }

  EXPECT_EQ(over_tcp.flat_mesh().triangle_count(), reference.flat_mesh().triangle_count());
  EXPECT_NEAR(over_tcp.flat_mesh().surface_area(), reference.flat_mesh().surface_area(), 1e-6);
}

// ---------------------------------------------------------------------------
// Progress reporting reaches the client
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, ProgressPacketsArriveMonotonically) {
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  auto stream = session.submit("iso.dataman", iso_params(1));
  std::vector<double> progress;
  while (true) {
    auto packet = stream->next(std::chrono::milliseconds(60000));
    ASSERT_TRUE(packet.has_value());
    if (packet->kind == vv::Packet::Kind::kComplete) {
      ASSERT_TRUE(packet->stats.success);
      break;
    }
    if (packet->kind == vv::Packet::Kind::kProgress) {
      progress.push_back(packet->progress);
    }
  }
  ASSERT_FALSE(progress.empty());
  EXPECT_TRUE(std::is_sorted(progress.begin(), progress.end()));
  EXPECT_NEAR(progress.back(), 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Worker-count equivalence sweep (parameterized)
// ---------------------------------------------------------------------------

class WorkerSweepTest : public IntegrationTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(WorkerSweepTest, VortexGeometryIndependentOfGroupSize) {
  const int workers = GetParam();
  vc::BackendConfig config;
  config.workers = workers;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_double("iso", -0.5);
  params.set_int("workers", workers);
  std::vector<vu::ByteBuffer> fragments;
  const auto stats = session.submit("vortex.dataman", params)->wait(&fragments);
  ASSERT_TRUE(stats.success) << stats.error;
  ASSERT_EQ(fragments.size(), 1u);
  vv::Packet packet;
  packet.kind = vv::Packet::Kind::kFinal;
  packet.payload = std::move(fragments[0]);
  vv::GeometryCollector collector;
  collector.consume(packet);

  // Triangle count is a worker-count invariant (merge is exact).
  static std::size_t reference_triangles = 0;
  if (workers == 1) {
    reference_triangles = collector.flat_mesh().triangle_count();
    EXPECT_GT(reference_triangles, 0u);
  } else {
    EXPECT_EQ(collector.flat_mesh().triangle_count(), reference_triangles);
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, WorkerSweepTest, ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) {
                           return "workers" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Multiple concurrent clients (collaboration scenario)
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, TwoClientsGetTheirOwnResults) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);

  // Both sessions assign request_id 1 to their first request — the
  // scheduler must keep them apart and route each result home.
  vv::ExtractionSession alice(backend.connect());
  vv::ExtractionSession bob(backend.connect());

  auto alice_params = iso_params(1);
  auto bob_params = iso_params(1);
  bob_params.set_double("iso", iso_ * 1.03);  // different surface

  auto alice_stream = alice.submit("iso.dataman", alice_params);
  auto bob_stream = bob.submit("iso.dataman", bob_params);
  EXPECT_EQ(alice_stream->request_id(), bob_stream->request_id());  // ids collide by design

  std::vector<vu::ByteBuffer> alice_fragments;
  std::vector<vu::ByteBuffer> bob_fragments;
  const auto alice_stats = alice_stream->wait(&alice_fragments);
  const auto bob_stats = bob_stream->wait(&bob_fragments);
  ASSERT_TRUE(alice_stats.success) << alice_stats.error;
  ASSERT_TRUE(bob_stats.success) << bob_stats.error;
  ASSERT_EQ(alice_fragments.size(), 1u);
  ASSERT_EQ(bob_fragments.size(), 1u);

  // Different iso values -> different surfaces: each client must have
  // received exactly its own.
  vv::Packet a;
  a.kind = vv::Packet::Kind::kFinal;
  a.payload = std::move(alice_fragments[0]);
  vv::Packet b;
  b.kind = vv::Packet::Kind::kFinal;
  b.payload = std::move(bob_fragments[0]);
  vv::GeometryCollector ca;
  vv::GeometryCollector cb;
  ca.consume(a);
  cb.consume(b);
  EXPECT_GT(ca.flat_mesh().triangle_count(), 0u);
  EXPECT_GT(cb.flat_mesh().triangle_count(), 0u);
  EXPECT_NE(ca.flat_mesh().triangle_count(), cb.flat_mesh().triangle_count());
}

TEST_F(IntegrationTest, MixedTcpAndInProcessClients) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);
  const auto port = backend.serve_tcp();

  vv::ExtractionSession local(backend.connect());
  auto link = vira::comm::tcp_connect("127.0.0.1", port);
  vv::ExtractionSession remote(std::shared_ptr<vira::comm::ClientLink>(link.release()));

  auto local_stream = local.submit("iso.dataman", iso_params(1));
  auto remote_stream = remote.submit("iso.dataman", iso_params(1));
  EXPECT_TRUE(local_stream->wait().success);
  EXPECT_TRUE(remote_stream->wait().success);
}

// ---------------------------------------------------------------------------
// Message-based DMS wiring (the paper's distributed deployment)
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, DmsOverMessagesMatchesDirectWiring) {
  // Same command, both wirings: identical geometry, and the message path
  // really exercised the server (decision counters move).
  vu::ParamList params = iso_params(2);

  std::size_t direct_triangles = 0;
  {
    vc::BackendConfig config;
    config.workers = 2;
    vc::Backend backend(config);
    vv::ExtractionSession session(backend.connect());
    std::vector<vu::ByteBuffer> fragments;
    const auto stats = session.submit("iso.dataman", params)->wait(&fragments);
    ASSERT_TRUE(stats.success) << stats.error;
    vv::Packet packet;
    packet.kind = vv::Packet::Kind::kFinal;
    packet.payload = std::move(fragments[0]);
    vv::GeometryCollector collector;
    collector.consume(packet);
    direct_triangles = collector.flat_mesh().triangle_count();
  }

  vc::BackendConfig config;
  config.workers = 2;
  config.dms_over_messages = true;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());
  std::vector<vu::ByteBuffer> fragments;
  const auto stats = session.submit("iso.dataman", params)->wait(&fragments);
  ASSERT_TRUE(stats.success) << stats.error;
  vv::Packet packet;
  packet.kind = vv::Packet::Kind::kFinal;
  packet.payload = std::move(fragments[0]);
  vv::GeometryCollector collector;
  collector.consume(packet);
  EXPECT_EQ(collector.flat_mesh().triangle_count(), direct_triangles);

  // The central server was consulted per load, over messages.
  const auto decisions = backend.data_server().decision_counts();
  std::uint64_t total_decisions = 0;
  for (const auto& [kind, count] : decisions) {
    total_decisions += count;
  }
  EXPECT_GE(total_decisions, 23u);  // at least one decision per block
}

TEST_F(IntegrationTest, DmsOverMessagesSurvivesRepeatedCommands) {
  vc::BackendConfig config;
  config.workers = 2;
  config.dms_over_messages = true;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  for (int round = 0; round < 3; ++round) {
    auto params = iso_params(2);
    params.set_double("iso", iso_ * (0.98 + 0.02 * round));
    const auto stats = session.submit("iso.dataman", params)->wait();
    ASSERT_TRUE(stats.success) << "round " << round << ": " << stats.error;
  }
  // Repeat rounds were served from cache; the name service interned each
  // block exactly once.
  EXPECT_EQ(backend.data_server().names().size(), 23u);
  const auto counters = backend.dms_counters();
  EXPECT_GT(counters.l1_hits, counters.misses);
}

TEST_F(IntegrationTest, DmsOverMessagesWithAsyncPrefetch) {
  // The prefetch thread shares the worker's communicator with the command
  // thread — both must receive their own replies without stealing.
  vc::BackendConfig config;
  config.workers = 2;
  config.dms_over_messages = true;
  config.async_prefetch = true;
  vc::Backend backend(config);
  vv::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_int("workers", 2);
  params.set_int("seed_count", 4);
  params.set_int("step0", 0);
  params.set_int("step1", 3);
  params.set_double("tolerance", 1e-3);
  const auto stats = session.submit("pathlines.dataman", params)->wait();
  ASSERT_TRUE(stats.success) << stats.error;
  EXPECT_GT(backend.dms_counters().prefetch_issued, 0u);
}
