#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/cfd_command.hpp"
#include "comm/fault_transport.hpp"
#include "core/backend.hpp"
#include "grid/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "viz/session.hpp"

namespace va = vira::algo;
namespace vc = vira::core;
namespace vg = vira::grid;
namespace vm = vira::comm;
namespace vo = vira::obs;
namespace vu = vira::util;
namespace vv = vira::viz;

namespace {

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterSurvivesConcurrentHammering) {
  auto& counter = vo::Registry::instance().counter("test.concurrent_counter");
  auto& histogram = vo::Registry::instance().histogram("test.concurrent_histogram");
  counter.reset();
  histogram.reset();

  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Mix registration-time lookup with pre-resolved bumping, like real
      // call sites do.
      auto& same = vo::Registry::instance().counter("test.concurrent_counter");
      for (int i = 0; i < kIterations; ++i) {
        same.add();
        histogram.observe(1e-4);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_NEAR(histogram.sum(), kThreads * kIterations * 1e-4, 1e-3);
}

TEST(ObsMetrics, NameCollisionAcrossKindsThrows) {
  vo::Registry::instance().counter("test.kind_collision");
  EXPECT_THROW(vo::Registry::instance().gauge("test.kind_collision"), std::logic_error);
  EXPECT_THROW(vo::Registry::instance().histogram("test.kind_collision"), std::logic_error);
  // Same kind re-resolves to the same instrument.
  auto& a = vo::Registry::instance().counter("test.kind_collision");
  auto& b = vo::Registry::instance().counter("test.kind_collision");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetrics, HistogramQuantilesAndDump) {
  auto& histogram =
      vo::Registry::instance().histogram("test.quantiles", std::vector<double>{0.01, 0.1, 1.0});
  histogram.reset();
  for (int i = 0; i < 98; ++i) {
    histogram.observe(0.005);  // first bucket
  }
  histogram.observe(0.5);
  histogram.observe(0.5);
  EXPECT_DOUBLE_EQ(histogram.quantile_upper_bound(0.5), 0.01);
  EXPECT_DOUBLE_EQ(histogram.quantile_upper_bound(0.99), 1.0);

  std::ostringstream dump;
  vo::Registry::instance().dump(dump);
  EXPECT_NE(dump.str().find("histogram test.quantiles count=100"), std::string::npos);
  EXPECT_NE(dump.str().find("counter test.kind_collision"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer basics
// ---------------------------------------------------------------------------

TEST(ObsTracer, NoSinkMeansInertSpans) {
  auto& tracer = vo::Tracer::instance();
  tracer.disable();
  tracer.clear();

  auto span = tracer.start("orphan", 1, 0, 0);
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.context().span_id, 0u);
  span.arg("ignored", 7);
  span.end();

  auto child = tracer.start_child("child");
  EXPECT_FALSE(child.active());
  child.end();

  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(vo::current_context().span_id, 0u);
}

TEST(ObsTracer, ContextScopeStitchesChildren) {
  auto& tracer = vo::Tracer::instance();
  tracer.enable();
  tracer.clear();

  auto root = tracer.start("root", 42, 0, 0);
  ASSERT_TRUE(root.active());
  {
    vo::ContextScope scope(root.context());
    auto child = tracer.start_child("child");
    ASSERT_TRUE(child.active());
    EXPECT_EQ(child.context().request_id, 42u);
    child.arg("bytes", 128);
  }
  EXPECT_EQ(vo::current_context().span_id, 0u);
  root.end();

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto& child = spans[0].name == "child" ? spans[0] : spans[1];
  const auto& parent = spans[0].name == "root" ? spans[0] : spans[1];
  EXPECT_EQ(child.parent_id, parent.span_id);
  EXPECT_EQ(child.request_id, 42u);
  ASSERT_EQ(child.args.size(), 1u);
  EXPECT_EQ(child.args[0].first, "bytes");
  EXPECT_EQ(child.args[0].second, 128);

  tracer.disable();
  tracer.clear();
}

TEST(ObsTracer, CapacityBoundsTheRecordStore) {
  auto& tracer = vo::Tracer::instance();
  tracer.enable();
  tracer.clear();
  tracer.set_capacity(4);
  const auto dropped_before = tracer.dropped();
  for (int i = 0; i < 10; ++i) {
    tracer.start("burst", 1, 0, 0).end();
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped() - dropped_before, 6u);
  tracer.set_capacity(1u << 20);
  tracer.disable();
  tracer.clear();
}

// ---------------------------------------------------------------------------
// Chrome export (lightweight structural parse; the vira-obs-smoke ctest does
// the strict JSON parse via tools/check_trace.py)
// ---------------------------------------------------------------------------

/// Pulls every `"key":<integer>` occurrence out of the export.
std::vector<long long> scrape_int_values(const std::string& json, const std::string& key) {
  std::vector<long long> values;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    values.push_back(std::stoll(json.substr(pos)));
  }
  return values;
}

TEST(ObsExport, ChromeTraceHasUniqueStitchedSpans) {
  auto& tracer = vo::Tracer::instance();
  tracer.enable();
  tracer.clear();

  auto root = tracer.start("export \"root\"", 9, 0, 0);  // quote needs escaping
  {
    vo::ContextScope scope(root.context());
    tracer.start_child("export.child").end();
  }
  root.end();

  std::ostringstream out;
  vo::write_chrome_trace(out);
  const std::string json = out.str();
  tracer.disable();
  tracer.clear();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"export \\\"root\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process_name metadata

  const auto span_ids = scrape_int_values(json, "span_id");
  ASSERT_EQ(span_ids.size(), 2u);
  EXPECT_NE(span_ids[0], span_ids[1]);
  const auto parents = scrape_int_values(json, "parent_id");
  ASSERT_EQ(parents.size(), 2u);
  // One root (parent 0), one child whose parent is an exported span.
  EXPECT_EQ(std::count(parents.begin(), parents.end(), 0), 1);
  for (const auto parent : parents) {
    if (parent != 0) {
      EXPECT_NE(std::find(span_ids.begin(), span_ids.end(), parent), span_ids.end());
    }
  }
}

// ---------------------------------------------------------------------------
// TimelineReport
// ---------------------------------------------------------------------------

TEST(ObsTimeline, FromPhasesComputesShares) {
  const auto report =
      vo::TimelineReport::from_phases({{"compute", 3.0}, {"read", 1.0}}, /*wall_seconds=*/5.0);
  EXPECT_DOUBLE_EQ(report.total(), 4.0);
  EXPECT_DOUBLE_EQ(report.share("compute"), 0.75);
  EXPECT_DOUBLE_EQ(report.share("read"), 0.25);
  EXPECT_DOUBLE_EQ(report.share("send"), 0.0);
  EXPECT_DOUBLE_EQ(report.wall_seconds(), 5.0);

  std::ostringstream out;
  report.print(out, "fixture");
  EXPECT_NE(out.str().find("compute  75.0%"), std::string::npos);

  const auto empty = vo::TimelineReport::from_phases({});
  EXPECT_DOUBLE_EQ(empty.total(), 0.0);
  std::ostringstream out2;
  empty.print(out2, "empty");
  EXPECT_NE(out2.str().find("(no samples)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: traced requests over a real Backend
// ---------------------------------------------------------------------------

class ObsBackendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    va::register_builtin_commands();
    dataset_ = (std::filesystem::temp_directory_path() / "vira_obs_ds").string();
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

  static std::string dataset_;
  static double iso_;
};
std::string ObsBackendTest::dataset_;
double ObsBackendTest::iso_ = 0.0;

TEST_F(ObsBackendTest, SingleRequestStitchesAcrossRanksWithHighCoverage) {
  auto& tracer = vo::Tracer::instance();
  tracer.enable();
  tracer.clear();

  {
    vc::BackendConfig config;
    config.workers = 2;
    // Slow storage stretches the request so the traced window dwarfs the
    // client/scheduler hand-off gaps the spans cannot cover.
    config.read_delay_us_per_mb = 3e6;
    vc::Backend backend(config);
    vv::ExtractionSession session(backend.connect());
    std::vector<vu::ByteBuffer> fragments;
    const auto stats = session.submit("iso.dataman", iso_params(2))->wait(&fragments);
    EXPECT_TRUE(stats.success) << stats.error;
    session.close();
    backend.shutdown();
  }

  const auto spans = tracer.snapshot();
  tracer.disable();

  std::map<std::string, int> by_name;
  std::map<std::uint64_t, const vo::SpanRecord*> by_id;
  for (const auto& span : spans) {
    ++by_name[span.name];
    by_id[span.span_id] = &span;
  }
  ASSERT_EQ(by_name["client.request"], 1);
  ASSERT_EQ(by_name["sched.request"], 1);
  EXPECT_EQ(by_name["worker.execute"], 2);
  EXPECT_GE(by_name["compute"], 1);
  EXPECT_GE(by_name["read"], 1);
  EXPECT_GE(by_name["dms.load"], 1);
  EXPECT_GE(by_name["comm.send"], 1);

  // Every span id is unique and every parent resolves (async prefetch roots
  // have parent 0 and are fine).
  EXPECT_EQ(by_id.size(), spans.size());
  const auto client_it = std::find_if(spans.begin(), spans.end(),
                                      [](const auto& s) { return s.name == "client.request"; });
  ASSERT_NE(client_it, spans.end());
  const auto* client = &*client_it;
  for (const auto& span : spans) {
    if (span.parent_id != 0) {
      ASSERT_TRUE(by_id.count(span.parent_id)) << span.name << " has an orphan parent";
    }
  }

  // The whole tree hangs off the client span: scheduler attempt under the
  // client request, worker executes under the scheduler attempt.
  const auto& sched = *std::find_if(spans.begin(), spans.end(),
                                    [](const auto& s) { return s.name == "sched.request"; });
  EXPECT_EQ(sched.parent_id, client->span_id);
  EXPECT_EQ(sched.rank, 0);
  EXPECT_EQ(client->rank, vo::kClientRank);
  for (const auto& span : spans) {
    if (span.name == "worker.execute") {
      EXPECT_EQ(span.parent_id, sched.span_id);
      EXPECT_GE(span.rank, 1);
      EXPECT_EQ(span.request_id, client->request_id);
    }
  }

  // Server-side spans account for >= 95% of what the client waited on.
  const auto report = vo::TimelineReport::from_spans(spans, client->request_id);
  EXPECT_GT(report.wall_seconds(), 0.0);
  EXPECT_GE(report.coverage(), 0.95) << "coverage " << report.coverage() << " of "
                                     << report.wall_seconds() << "s window";
  EXPECT_GT(report.seconds("read"), 0.0);
  EXPECT_GT(report.seconds("compute"), 0.0);

  tracer.clear();
}

using FragmentKey = std::pair<std::int32_t, std::uint32_t>;

TEST_F(ObsBackendTest, KilledRankLeavesRetryVisibleInTraceAndMetrics) {
  auto& tracer = vo::Tracer::instance();
  tracer.enable();
  tracer.clear();
  const auto retries_before = vo::Registry::instance().counter("sched.retries").value();

  bool killed = false;
  {
    vc::BackendConfig config;
    config.workers = 4;
    config.worker.heartbeat_interval = std::chrono::milliseconds(10);
    config.scheduler.death_timeout = std::chrono::milliseconds(250);
    config.scheduler.idle_grace = std::chrono::milliseconds(300);
    config.scheduler.retry_backoff = std::chrono::milliseconds(5);
    config.scheduler.max_retries = 3;
    config.read_delay_us_per_mb = 3e6;
    auto injector = std::make_shared<vm::FaultInjectingTransport>(
        std::make_shared<vm::InProcTransport>(config.workers + 1),
        vm::FaultInjectionConfig{});  // kill switch only
    vc::Backend backend(config, injector);

    vv::ExtractionSession session(backend.connect());
    auto params = iso_params(3);
    params.set_int("stream_cells", 8);
    params.set_doubles("viewpoint", {0, 0, 0});
    auto stream = session.submit("iso.viewer", params);

    bool complete = false;
    while (!complete) {
      auto packet = stream->next(std::chrono::milliseconds(60000));
      ASSERT_TRUE(packet.has_value()) << "stream stalled";
      if (packet->kind == vv::Packet::Kind::kComplete) {
        EXPECT_TRUE(packet->stats.success) << packet->stats.error;
        EXPECT_GT(packet->stats.retries, 0u);
        complete = true;
      } else if ((packet->kind == vv::Packet::Kind::kPartial ||
                  packet->kind == vv::Packet::Kind::kFinal) &&
                 !killed) {
        injector->kill_rank(3);
        killed = true;
      }
    }
    session.close();
    backend.shutdown();
  }
  EXPECT_TRUE(killed);

  const auto spans = tracer.snapshot();
  tracer.disable();

  // The retry shows up as a second sched.request attempt under the same
  // client request, and the trace still stitches: no orphans.
  const auto& client = *std::find_if(spans.begin(), spans.end(),
                                     [](const auto& s) { return s.name == "client.request"; });
  int attempts = 0;
  std::set<std::uint64_t> ids;
  for (const auto& span : spans) {
    ids.insert(span.span_id);
    if (span.name == "sched.request" && span.request_id == client.request_id) {
      ++attempts;
      EXPECT_EQ(span.parent_id, client.span_id);
    }
  }
  EXPECT_GE(attempts, 2) << "expected the retry to open a second scheduler attempt span";
  EXPECT_EQ(ids.size(), spans.size());
  for (const auto& span : spans) {
    if (span.parent_id != 0) {
      EXPECT_TRUE(ids.count(span.parent_id)) << span.name << " has an orphan parent";
    }
  }

  // The shared registry saw the retry and the degraded completion.
  EXPECT_GT(vo::Registry::instance().counter("sched.retries").value(), retries_before);
  std::ostringstream dump;
  vo::Registry::instance().dump(dump);
  EXPECT_NE(dump.str().find("counter sched.retries"), std::string::npos);
  EXPECT_NE(dump.str().find("counter sched.lost_workers"), std::string::npos);
  EXPECT_NE(dump.str().find("counter fault.killed_ranks"), std::string::npos);

  tracer.clear();
}

}  // namespace
