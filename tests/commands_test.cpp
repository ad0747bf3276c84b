#include <gtest/gtest.h>

#include <filesystem>

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

/// Small Engine-like dataset shared by every test in this binary.
class CommandsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    va::register_builtin_commands();
    dataset_ = (std::filesystem::temp_directory_path() / "vira_commands_engine").string();
    vg::ensure_dataset(dataset_, [] {
      vg::GeneratorConfig config;
      config.directory = dataset_;
      config.timesteps = 4;
      config.ni = 10;
      config.nj = 8;
      config.nk = 6;
      vg::generate_engine(config);
    });
  }

  static std::unique_ptr<vc::Backend> make_backend(int workers) {
    vc::BackendConfig config;
    config.workers = workers;
    return std::make_unique<vc::Backend>(config);
  }

  /// Runs a command to completion, returning (collector, stats).
  static std::pair<vv::GeometryCollector, vc::CommandStats> run(
      vv::ExtractionSession& session, const std::string& command, vu::ParamList params) {
    auto stream = session.submit(command, params);
    vv::GeometryCollector collector;
    while (true) {
      auto packet = stream->next(std::chrono::milliseconds(60000));
      if (!packet) {
        ADD_FAILURE() << command << ": stream dried up";
        return {collector, {}};
      }
      if (packet->kind == vv::Packet::Kind::kComplete) {
        return {std::move(collector), packet->stats};
      }
      collector.consume(*packet);
    }
  }

  static vu::ParamList iso_params(int workers, double iso = 0.0) {
    vu::ParamList params;
    params.set("dataset", dataset_);
    params.set_int("step", 0);
    params.set("field", "density");
    params.set_double("iso", iso != 0.0 ? iso : density_iso_mid());
    params.set_int("workers", workers);
    return params;
  }

  /// Midpoint of the global density range at step 0 — always a valid,
  /// surface-producing iso value for the fixture dataset.
  static double density_iso_mid() {
    if (iso_mid_ == 0.0) {
      vg::DatasetReader reader(dataset_);
      float lo = std::numeric_limits<float>::max();
      float hi = std::numeric_limits<float>::lowest();
      for (int b = 0; b < reader.meta().block_count(); ++b) {
        const auto block = reader.read_block(0, b);
        const auto [blo, bhi] = block.scalar_range("density");
        lo = std::min(lo, blo);
        hi = std::max(hi, bhi);
      }
      iso_mid_ = 0.5 * (lo + hi);
    }
    return iso_mid_;
  }

  static std::string dataset_;
  static double iso_mid_;
};
std::string CommandsTest::dataset_;
double CommandsTest::iso_mid_ = 0.0;

}  // namespace

// ---------------------------------------------------------------------------
// Isosurface commands
// ---------------------------------------------------------------------------

TEST_F(CommandsTest, SimpleIsoProducesSurface) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  auto [collector, stats] = run(session, "iso.simple", iso_params(2));
  ASSERT_TRUE(stats.success) << stats.error;
  EXPECT_GT(collector.flat_mesh().triangle_count(), 0u);
  // Simple commands bypass the DMS entirely.
  EXPECT_EQ(backend->dms_counters().requests, 0u);
}

TEST_F(CommandsTest, IsoDataManMatchesSimpleIso) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  auto [simple, simple_stats] = run(session, "iso.simple", iso_params(2));
  auto [dataman, dataman_stats] = run(session, "iso.dataman", iso_params(2));
  ASSERT_TRUE(simple_stats.success);
  ASSERT_TRUE(dataman_stats.success);
  // Identical geometry regardless of the data path.
  EXPECT_EQ(simple.flat_mesh().triangle_count(), dataman.flat_mesh().triangle_count());
  EXPECT_NEAR(simple.flat_mesh().surface_area(), dataman.flat_mesh().surface_area(), 1e-6);
  EXPECT_GT(backend->dms_counters().requests, 0u);
}

TEST_F(CommandsTest, IsoResultIndependentOfWorkerCount) {
  auto backend = make_backend(4);
  vv::ExtractionSession session(backend->connect());
  auto [one, stats_one] = run(session, "iso.dataman", iso_params(1));
  auto [four, stats_four] = run(session, "iso.dataman", iso_params(4));
  ASSERT_TRUE(stats_one.success);
  ASSERT_TRUE(stats_four.success);
  EXPECT_EQ(stats_one.workers, 1);
  EXPECT_EQ(stats_four.workers, 4);
  EXPECT_EQ(one.flat_mesh().triangle_count(), four.flat_mesh().triangle_count());
  EXPECT_NEAR(one.flat_mesh().surface_area(), four.flat_mesh().surface_area(), 1e-6);
}

TEST_F(CommandsTest, ViewerIsoStreamsSameSurface) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  auto [monolithic, mono_stats] = run(session, "iso.dataman", iso_params(2));

  auto params = iso_params(2);
  params.set_doubles("viewpoint", {0.0, 0.0, 0.5});
  params.set_int("stream_cells", 64);
  auto [streamed, stream_stats] = run(session, "iso.viewer", params);

  ASSERT_TRUE(mono_stats.success);
  ASSERT_TRUE(stream_stats.success) << stream_stats.error;
  // The streamed fragments reassemble the same surface.
  EXPECT_EQ(streamed.flat_mesh().triangle_count(), monolithic.flat_mesh().triangle_count());
  EXPECT_NEAR(streamed.flat_mesh().surface_area(), monolithic.flat_mesh().surface_area(), 1e-6);
  // And it really streamed: multiple partial packets, latency < runtime.
  EXPECT_GT(stream_stats.partial_packets, 1u);
  EXPECT_LT(stream_stats.latency, stream_stats.total_runtime + 1e-9);
  // Summary triangle count matches the received geometry.
  EXPECT_TRUE(streamed.have_summary());
  EXPECT_EQ(streamed.summary_triangles(), streamed.flat_mesh().triangle_count());
}

TEST_F(CommandsTest, ViewerIsoFirstFragmentsAreNearViewer) {
  auto backend = make_backend(1);
  vv::ExtractionSession session(backend->connect());
  const vira::math::Vec3 viewpoint{0.0, 0.0, 0.0};
  auto params = iso_params(1);
  params.set_doubles("viewpoint", {viewpoint.x, viewpoint.y, viewpoint.z});
  params.set_int("stream_cells", 32);

  auto stream = session.submit("iso.viewer", params);
  std::vector<double> fragment_distances;
  while (true) {
    auto packet = stream->next(std::chrono::milliseconds(60000));
    ASSERT_TRUE(packet.has_value());
    if (packet->kind == vv::Packet::Kind::kComplete) {
      break;
    }
    if (packet->kind == vv::Packet::Kind::kPartial) {
      auto fragment = va::decode_fragment(packet->payload);
      if (fragment.kind == va::kPayloadMesh && !fragment.mesh.empty()) {
        fragment_distances.push_back(
            std::sqrt(fragment.mesh.bounds().distance2(viewpoint)));
      }
    }
  }
  ASSERT_GT(fragment_distances.size(), 2u);
  // Front-to-back tendency: the first fragment is closer than the last.
  EXPECT_LT(fragment_distances.front(), fragment_distances.back() + 1e-9);
}

// ---------------------------------------------------------------------------
// Vortex commands
// ---------------------------------------------------------------------------

TEST_F(CommandsTest, VortexCommandsAgree) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_int("step", 0);
  params.set_double("iso", -1.0);  // λ2 threshold inside the vortical range
  params.set_int("workers", 2);

  auto [simple, simple_stats] = run(session, "vortex.simple", params);
  auto [dataman, dataman_stats] = run(session, "vortex.dataman", params);
  ASSERT_TRUE(simple_stats.success) << simple_stats.error;
  ASSERT_TRUE(dataman_stats.success) << dataman_stats.error;
  EXPECT_GT(simple.flat_mesh().triangle_count(), 0u);
  EXPECT_EQ(simple.flat_mesh().triangle_count(), dataman.flat_mesh().triangle_count());

  params.set_int("stream_cells", 64);
  auto [streamed, stream_stats] = run(session, "vortex.streamed", params);
  ASSERT_TRUE(stream_stats.success) << stream_stats.error;
  EXPECT_EQ(streamed.flat_mesh().triangle_count(), simple.flat_mesh().triangle_count());
  EXPECT_GE(stream_stats.partial_packets, 1u);
  EXPECT_TRUE(streamed.have_summary());
  EXPECT_EQ(streamed.summary_triangles(), streamed.flat_mesh().triangle_count());
}

// ---------------------------------------------------------------------------
// Pathline commands
// ---------------------------------------------------------------------------

TEST_F(CommandsTest, PathlinesProduceLines) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_int("workers", 2);
  params.set_int("seed_count", 6);
  params.set_int("step0", 0);
  params.set_int("step1", 3);
  params.set_double("h_init", 2e-4);
  params.set_double("tolerance", 1e-4);

  auto [result, stats] = run(session, "pathlines.dataman", params);
  ASSERT_TRUE(stats.success) << stats.error;
  EXPECT_EQ(result.lines().line_count(), 6u);
  // Lines advance in time.
  for (std::size_t l = 0; l < result.lines().line_count(); ++l) {
    const auto times = result.lines().line_times(l);
    ASSERT_GE(times.size(), 1u);
    for (std::size_t n = 1; n < times.size(); ++n) {
      EXPECT_GE(times[n], times[n - 1]);
    }
  }
  // Markov prefetcher was active.
  EXPECT_GT(backend->dms_counters().prefetch_issued, 0u);
}

TEST_F(CommandsTest, SimplePathlinesMatchDataMan) {
  auto backend = make_backend(1);
  vv::ExtractionSession session(backend->connect());
  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_int("workers", 1);
  params.set_doubles("seeds", {0.005, 0.005, 0.05, -0.01, 0.01, 0.06});
  params.set_int("step0", 0);
  params.set_int("step1", 2);
  params.set_double("tolerance", 1e-5);

  auto [simple, simple_stats] = run(session, "pathlines.simple", params);
  auto [dataman, dataman_stats] = run(session, "pathlines.dataman", params);
  ASSERT_TRUE(simple_stats.success) << simple_stats.error;
  ASSERT_TRUE(dataman_stats.success) << dataman_stats.error;
  ASSERT_EQ(simple.lines().line_count(), dataman.lines().line_count());
  for (std::size_t l = 0; l < simple.lines().line_count(); ++l) {
    const auto a = simple.lines().line(l);
    const auto b = dataman.lines().line(l);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t n = 0; n < a.size(); ++n) {
      EXPECT_NEAR((a[n] - b[n]).norm(), 0.0, 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Extension commands
// ---------------------------------------------------------------------------

TEST_F(CommandsTest, CutPlaneSlicesTheCylinder) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_int("workers", 2);
  params.set_doubles("origin", {0.0, 0.0, 0.05});
  params.set_doubles("normal", {0.0, 0.0, 1.0});

  auto [result, stats] = run(session, "cutplane.dataman", params);
  ASSERT_TRUE(stats.success) << stats.error;
  const auto& mesh = result.flat_mesh();
  EXPECT_GT(mesh.triangle_count(), 0u);
  // Every slice vertex lies on the plane z = 0.05.
  for (std::size_t v = 0; v < mesh.vertex_count(); ++v) {
    EXPECT_NEAR(mesh.vertex(v).z, 0.05, 1e-5);
  }
}

TEST_F(CommandsTest, ProgressiveIsoRefinesMonotonically) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  auto params = iso_params(2);

  auto stream = session.submit("iso.progressive", params);
  vv::GeometryCollector collector;
  std::vector<int> level_sequence;
  while (true) {
    auto packet = stream->next(std::chrono::milliseconds(60000));
    ASSERT_TRUE(packet.has_value());
    if (packet->kind == vv::Packet::Kind::kComplete) {
      ASSERT_TRUE(packet->stats.success) << packet->stats.error;
      break;
    }
    if (packet->kind == vv::Packet::Kind::kPartial) {
      const auto rewind = packet->payload.read_pos();
      auto fragment = va::decode_fragment(packet->payload);
      packet->payload.seek(rewind);
      if (fragment.kind == va::kPayloadMesh) {
        level_sequence.push_back(fragment.level);
      }
      collector.consume(*packet);
    }
  }
  // Three levels, coarse strictly before fine (the group barrier).
  ASSERT_FALSE(level_sequence.empty());
  EXPECT_TRUE(std::is_sorted(level_sequence.begin(), level_sequence.end()));
  EXPECT_EQ(level_sequence.front(), 0);
  EXPECT_EQ(level_sequence.back(), 2);
  // Refinement adds detail.
  const auto& levels = collector.levels();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_LT(levels.at(0).triangle_count(), levels.at(2).triangle_count());
  // The finest level matches the non-progressive result.
  auto [reference, ref_stats] = run(session, "iso.dataman", iso_params(2));
  ASSERT_TRUE(ref_stats.success);
  EXPECT_EQ(levels.at(2).triangle_count(), reference.flat_mesh().triangle_count());
}

TEST_F(CommandsTest, ClearCacheCommandColdStarts) {
  auto backend = make_backend(1);
  vv::ExtractionSession session(backend->connect());
  (void)run(session, "iso.dataman", iso_params(1));
  const auto before = backend->dms_counters();

  vu::ParamList params;
  params.set_int("workers", 1);
  auto [result, stats] = run(session, "sys.clear_cache", params);
  ASSERT_TRUE(stats.success);

  (void)run(session, "iso.dataman", iso_params(1));
  const auto after = backend->dms_counters();
  EXPECT_GT(after.misses, before.misses);
}

// ---------------------------------------------------------------------------
// Error handling
// ---------------------------------------------------------------------------

TEST_F(CommandsTest, MissingDatasetParameterFails) {
  auto backend = make_backend(1);
  vv::ExtractionSession session(backend->connect());
  vu::ParamList params;
  params.set_int("workers", 1);
  auto [result, stats] = run(session, "iso.dataman", params);
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.error.find("dataset"), std::string::npos);
}

TEST_F(CommandsTest, NonexistentDatasetFails) {
  auto backend = make_backend(1);
  vv::ExtractionSession session(backend->connect());
  vu::ParamList params;
  params.set("dataset", "/nonexistent/path/to/data");
  params.set_int("workers", 1);
  auto [result, stats] = run(session, "iso.dataman", params);
  EXPECT_FALSE(stats.success);
}

// ---------------------------------------------------------------------------
// Query commands
// ---------------------------------------------------------------------------

TEST_F(CommandsTest, FieldRangeMatchesDirectScan) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_int("workers", 2);
  params.set("field", "density");
  std::vector<vu::ByteBuffer> fragments;
  const auto stats = session.submit("query.field_range", params)->wait(&fragments);
  ASSERT_TRUE(stats.success) << stats.error;
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0].read_string(), "field_range");
  EXPECT_EQ(fragments[0].read_string(), "density");
  const float lo = fragments[0].read<float>();
  const float hi = fragments[0].read<float>();

  // Reference: direct dataset scan.
  vg::DatasetReader reader(dataset_);
  float ref_lo = 1e30f;
  float ref_hi = -1e30f;
  for (int b = 0; b < reader.meta().block_count(); ++b) {
    const auto [blo, bhi] = reader.read_block(0, b).scalar_range("density");
    ref_lo = std::min(ref_lo, blo);
    ref_hi = std::max(ref_hi, bhi);
  }
  EXPECT_FLOAT_EQ(lo, ref_lo);
  EXPECT_FLOAT_EQ(hi, ref_hi);
}

TEST_F(CommandsTest, FieldRangeComputesLambda2OnDemand) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  vu::ParamList params;
  params.set("dataset", dataset_);
  params.set_int("workers", 2);
  params.set("field", "lambda2");
  std::vector<vu::ByteBuffer> fragments;
  const auto stats = session.submit("query.field_range", params)->wait(&fragments);
  ASSERT_TRUE(stats.success) << stats.error;
  ASSERT_EQ(fragments.size(), 1u);
  (void)fragments[0].read_string();
  (void)fragments[0].read_string();
  const float lo = fragments[0].read<float>();
  const float hi = fragments[0].read<float>();
  EXPECT_LT(lo, 0.0f);  // the engine flow has vortical regions
  EXPECT_GT(hi, lo);
}

TEST_F(CommandsTest, TimeseriesStreamsOneFramePerStep) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  auto params = iso_params(2);
  params.set_int("step0", 0);
  params.set_int("step1", 3);

  auto stream = session.submit("iso.timeseries", params);
  std::map<int, std::size_t> triangles_per_step;
  while (true) {
    auto packet = stream->next(std::chrono::milliseconds(60000));
    ASSERT_TRUE(packet.has_value());
    if (packet->kind == vv::Packet::Kind::kComplete) {
      ASSERT_TRUE(packet->stats.success) << packet->stats.error;
      break;
    }
    if (packet->kind == vv::Packet::Kind::kPartial) {
      auto fragment = va::decode_fragment(packet->payload);
      if (fragment.kind == va::kPayloadMesh) {
        triangles_per_step[fragment.level] += fragment.mesh.triangle_count();
      }
    }
  }
  // Frames for steps 0..3, each matching the single-step command's output.
  ASSERT_EQ(triangles_per_step.size(), 4u);
  for (int step = 0; step <= 3; ++step) {
    auto single = iso_params(2);
    single.set_int("step", step);
    auto [collector, stats] = run(session, "iso.dataman", single);
    ASSERT_TRUE(stats.success);
    EXPECT_EQ(triangles_per_step.at(step), collector.flat_mesh().triangle_count())
        << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// Property sweep: streamed/monolithic equivalence across iso values
// ---------------------------------------------------------------------------

class IsoValueSweepTest : public CommandsTest,
                          public ::testing::WithParamInterface<double> {};

TEST_P(IsoValueSweepTest, AllIsoPathsAgree) {
  // For any iso value in the field's range, every execution path — no DMS,
  // cached, view-dependent streamed — must produce the same surface.
  const double fraction = GetParam();
  vg::DatasetReader reader(dataset_);
  float lo = 1e30f;
  float hi = -1e30f;
  for (int b = 0; b < reader.meta().block_count(); ++b) {
    const auto [blo, bhi] = reader.read_block(0, b).scalar_range("density");
    lo = std::min(lo, blo);
    hi = std::max(hi, bhi);
  }
  const double iso = lo + (hi - lo) * fraction;

  auto backend = make_backend(3);
  vv::ExtractionSession session(backend->connect());
  auto params = iso_params(3, iso);

  auto [simple, simple_stats] = run(session, "iso.simple", params);
  ASSERT_TRUE(simple_stats.success) << simple_stats.error;

  auto [dataman, dataman_stats] = run(session, "iso.dataman", params);
  ASSERT_TRUE(dataman_stats.success) << dataman_stats.error;

  auto viewer_params = params;
  viewer_params.set_doubles("viewpoint", {0.05 * fraction, -0.1, 0.02});
  viewer_params.set_int("stream_cells", 48);
  auto [viewer, viewer_stats] = run(session, "iso.viewer", viewer_params);
  ASSERT_TRUE(viewer_stats.success) << viewer_stats.error;

  EXPECT_EQ(simple.flat_mesh().triangle_count(), dataman.flat_mesh().triangle_count());
  EXPECT_EQ(simple.flat_mesh().triangle_count(), viewer.flat_mesh().triangle_count());
  EXPECT_NEAR(simple.flat_mesh().surface_area(), viewer.flat_mesh().surface_area(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(IsoFractions, IsoValueSweepTest,
                         ::testing::Values(0.15, 0.35, 0.5, 0.65, 0.85),
                         [](const auto& info) {
                           return "f" + std::to_string(static_cast<int>(info.param * 100));
                         });

TEST_F(CommandsTest, IsoNormalsParameterProducesShadedSurface) {
  auto backend = make_backend(2);
  vv::ExtractionSession session(backend->connect());
  auto params = iso_params(2);
  params.set_bool("normals", true);
  auto [collector, stats] = run(session, "iso.dataman", params);
  ASSERT_TRUE(stats.success) << stats.error;
  const auto& mesh = collector.flat_mesh();
  ASSERT_GT(mesh.triangle_count(), 0u);
  ASSERT_TRUE(mesh.has_normals());
  for (std::size_t v = 0; v < std::min<std::size_t>(mesh.vertex_count(), 64); ++v) {
    EXPECT_NEAR(mesh.normal(v).norm(), 1.0, 1e-5);
  }
}
