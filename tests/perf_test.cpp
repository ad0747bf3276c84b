#include <gtest/gtest.h>

#include <filesystem>

#include "grid/synthetic.hpp"
#include "perf/replay.hpp"
#include "perf/testbed.hpp"

namespace vp = vira::perf;
namespace vg = vira::grid;

namespace {

/// Shared small Engine-like dataset + profiles for all replay tests.
class ReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "vira_perf_engine").string();
    vg::ensure_dataset(dir_, [] {
      vg::GeneratorConfig config;
      config.directory = dir_;
      config.timesteps = 6;
      config.ni = 12;
      config.nj = 9;
      config.nk = 7;
      vg::generate_engine(config);
    });
    reader_ = std::make_unique<vg::DatasetReader>(dir_);
    const double iso = vp::density_iso_mid(*reader_);
    iso_profile_ = vp::profile_iso(*reader_, 0, "density", static_cast<float>(iso), 128);
    vortex_profile_ = vp::profile_vortex(
        *reader_, 0, static_cast<float>(vp::lambda2_threshold(*reader_)), 128);
    cluster_ = vp::calibrate_cluster(iso_profile_, 17.0);
  }

  static vp::ReplayResult run_iso(int workers, bool use_dms, bool warm, bool prefetch = false,
                                  bool streaming = false) {
    vp::ReplayConfig config;
    config.workers = workers;
    config.use_dms = use_dms;
    config.warm_cache = warm;
    config.prefetch = prefetch;
    config.streaming = streaming;
    return vp::replay_extraction(iso_profile_, cluster_, config);
  }

  static std::string dir_;
  static std::unique_ptr<vg::DatasetReader> reader_;
  static vp::ExtractionProfile iso_profile_;
  static vp::ExtractionProfile vortex_profile_;
  static vp::ClusterModel cluster_;
};
std::string ReplayTest::dir_;
std::unique_ptr<vg::DatasetReader> ReplayTest::reader_;
vp::ExtractionProfile ReplayTest::iso_profile_;
vp::ExtractionProfile ReplayTest::vortex_profile_;
vp::ClusterModel ReplayTest::cluster_;

}  // namespace

TEST_F(ReplayTest, ProfilesHaveSaneNumbers) {
  EXPECT_EQ(iso_profile_.blocks.size(), 23u);
  EXPECT_GT(iso_profile_.host_compute_seconds(), 0.0);
  EXPECT_GT(iso_profile_.total_read_bytes(), 0u);
  EXPECT_GT(iso_profile_.total_result_bytes(), 0u);
  // λ2 is substantially more expensive than plain isosurfacing (Sec. 7.2).
  EXPECT_GT(vortex_profile_.host_compute_seconds(),
            2.0 * iso_profile_.host_compute_seconds());
}

TEST_F(ReplayTest, CalibrationHitsAnchors) {
  // One virtual worker, warm DMS: runtime ≈ the anchor compute seconds.
  const auto warm = run_iso(1, true, true);
  EXPECT_NEAR(warm.total_runtime, 17.0, 4.0);
  // Cold Simple run: reads roughly double it (the 50/49 split of Fig. 15).
  const auto simple = run_iso(1, false, false);
  EXPECT_NEAR(simple.total_runtime / warm.total_runtime, 2.0, 0.5);
}

TEST_F(ReplayTest, DataManagementBeatsSimple) {
  for (int workers : {1, 2, 4, 8, 16}) {
    const auto simple = run_iso(workers, false, false);
    const auto dataman = run_iso(workers, true, true);
    EXPECT_GT(simple.total_runtime, dataman.total_runtime) << workers << " workers";
  }
}

TEST_F(ReplayTest, RuntimeScalesWithWorkers) {
  const auto w1 = run_iso(1, true, true);
  const auto w4 = run_iso(4, true, true);
  const auto w8 = run_iso(8, true, true);
  EXPECT_GT(w1.total_runtime, w4.total_runtime);
  EXPECT_GT(w4.total_runtime, w8.total_runtime);
  // Speedup is sublinear (blocks are unevenly sized, gather serializes).
  EXPECT_LT(w1.total_runtime / w8.total_runtime, 8.5);
}

TEST_F(ReplayTest, StreamingReducesLatencyButAddsOverhead) {
  for (int workers : {1, 4, 16}) {
    const auto plain = run_iso(workers, true, true, false, false);
    const auto streamed = run_iso(workers, true, true, false, true);
    // First results arrive much earlier...
    EXPECT_LT(streamed.latency, 0.6 * plain.latency) << workers << " workers";
    // ...at a (usually mild) total-runtime cost.
    EXPECT_GE(streamed.total_runtime, plain.total_runtime * 0.95) << workers << " workers";
  }
}

TEST_F(ReplayTest, StreamingLatencyIsFlatInWorkerCount) {
  const auto l1 = run_iso(1, true, true, false, true).latency;
  const auto l16 = run_iso(16, true, true, false, true).latency;
  // "The response times are almost constant with respect to the number of
  // available workers" (Sec. 7.1).
  EXPECT_LT(std::max(l1, l16) / std::max(1e-9, std::min(l1, l16)), 3.0);
}

TEST_F(ReplayTest, PrefetchOverlapsIoOnColdCaches) {
  vp::ReplayConfig config;
  config.workers = 2;
  config.use_dms = true;
  config.warm_cache = false;
  config.prefetch = false;
  const auto without = vp::replay_extraction(vortex_profile_, cluster_, config);
  config.prefetch = true;
  const auto with = vp::replay_extraction(vortex_profile_, cluster_, config);
  EXPECT_LT(with.total_runtime, without.total_runtime);
  EXPECT_GT(with.prefetch_issued, 0u);
  EXPECT_GT(with.prefetch_useful, 0u);
  // Demand misses nearly eliminated: only the first block per worker.
  EXPECT_LE(with.demand_loads, 4u);
}

TEST_F(ReplayTest, ReplayIsDeterministic) {
  const auto a = run_iso(8, true, true, false, true);
  const auto b = run_iso(8, true, true, false, true);
  EXPECT_DOUBLE_EQ(a.total_runtime, b.total_runtime);
  EXPECT_DOUBLE_EQ(a.latency, b.latency);
  EXPECT_EQ(a.fragments, b.fragments);
}

TEST_F(ReplayTest, BreakdownShiftsWithCaching) {
  const auto simple = run_iso(1, false, false);
  const auto dataman = run_iso(1, true, true);
  const double simple_read_share = simple.read_seconds / simple.phase_total();
  const double dataman_read_share = dataman.read_seconds / dataman.phase_total();
  // Fig. 15: read share collapses once the DMS serves from cache.
  EXPECT_GT(simple_read_share, 0.3);
  EXPECT_LT(dataman_read_share, 0.1);
}

// ---------------------------------------------------------------------------
// Pathline replay
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, PathlineMarkovBeatsNoPrefetchCold) {
  const auto profile = vp::profile_pathlines(*reader_, 0, 5, 8);
  ASSERT_EQ(profile.seeds.size(), 8u);
  std::size_t total_requests = 0;
  for (const auto& seed : profile.seeds) {
    total_requests += seed.size();
  }
  ASSERT_GT(total_requests, 10u);

  vp::PathlineReplayConfig config;
  config.workers = 2;
  config.use_dms = true;
  config.warm_cache = false;
  config.blocks_per_step = reader_->meta().block_count();

  config.prefetcher = "none";
  const auto none = vp::replay_pathlines(profile, cluster_, config);
  config.prefetcher = "markov";
  const auto markov = vp::replay_pathlines(profile, cluster_, config);

  EXPECT_LT(markov.total_runtime, none.total_runtime);
  EXPECT_GT(markov.prefetch_useful, 0u);
  // Markov eliminates a large share of the demand loads.
  EXPECT_LT(markov.demand_loads, none.demand_loads);
}

TEST_F(ReplayTest, PathlineWarmCacheIsFast) {
  const auto profile = vp::profile_pathlines(*reader_, 0, 5, 8);
  vp::PathlineReplayConfig config;
  config.workers = 2;
  config.blocks_per_step = reader_->meta().block_count();
  config.use_dms = true;
  config.warm_cache = true;
  config.prefetcher = "none";
  const auto warm = vp::replay_pathlines(profile, cluster_, config);
  config.use_dms = false;
  config.warm_cache = false;
  const auto simple = vp::replay_pathlines(profile, cluster_, config);
  EXPECT_LT(warm.total_runtime, simple.total_runtime);
  EXPECT_EQ(warm.demand_loads, 0u);
}

TEST_F(ReplayTest, PathlineLoadImbalanceLimitsScaling) {
  const auto profile = vp::profile_pathlines(*reader_, 0, 5, 8);
  vp::PathlineReplayConfig config;
  config.blocks_per_step = reader_->meta().block_count();
  config.use_dms = true;
  config.warm_cache = true;
  config.prefetcher = "none";
  config.workers = 1;
  const auto w1 = vp::replay_pathlines(profile, cluster_, config);
  config.workers = 8;
  const auto w8 = vp::replay_pathlines(profile, cluster_, config);
  EXPECT_LT(w8.total_runtime, w1.total_runtime);
  // Sec. 7.3: "bad scalability because of load imbalance" — speedup far
  // below the worker count.
  EXPECT_LT(w1.total_runtime / w8.total_runtime, 7.0);
}

// ---------------------------------------------------------------------------
// Replay configuration knobs
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, DistributedCachesDuplicateColdLoads) {
  vp::ReplayConfig config;
  config.workers = 8;
  config.use_dms = true;
  config.warm_cache = false;
  config.shared_cache = true;  // one SMP node (paper testbed)
  const auto shared = vp::replay_extraction(iso_profile_, cluster_, config);
  config.shared_cache = false;  // distributed-memory cluster
  const auto distributed = vp::replay_extraction(iso_profile_, cluster_, config);
  // With chunked ownership each worker loads only its own blocks, so cold
  // demand counts match; the shared node cache matters for *revisits*
  // (pathlines) and for prefetch sharing, not for a single linear sweep.
  EXPECT_EQ(shared.demand_loads, distributed.demand_loads);
  EXPECT_EQ(shared.demand_loads, iso_profile_.blocks.size());
}

TEST_F(ReplayTest, SharedCacheDeduplicatesPathlineLoads) {
  const auto profile = vp::profile_pathlines(*reader_, 0, 5, 8);
  vp::PathlineReplayConfig config;
  config.workers = 4;
  config.use_dms = true;
  config.warm_cache = false;
  config.prefetcher = "none";
  config.blocks_per_step = reader_->meta().block_count();

  config.shared_cache = true;
  const auto shared = vp::replay_pathlines(profile, cluster_, config);
  config.shared_cache = false;
  const auto distributed = vp::replay_pathlines(profile, cluster_, config);
  // Different workers' traces overlap in blocks: per-worker caches must
  // re-load them, the node-wide cache must not.
  EXPECT_LT(shared.demand_loads, distributed.demand_loads);
  EXPECT_LE(shared.total_runtime, distributed.total_runtime + 1e-9);
}

TEST_F(ReplayTest, ReadBytesScaleInflatesIoOnly) {
  const auto profile = vp::profile_pathlines(*reader_, 0, 5, 4);
  vp::PathlineReplayConfig config;
  config.workers = 1;
  config.use_dms = true;
  config.warm_cache = false;
  config.prefetcher = "none";
  config.blocks_per_step = reader_->meta().block_count();

  config.read_bytes_scale = 1.0;
  const auto base = vp::replay_pathlines(profile, cluster_, config);
  config.read_bytes_scale = 10.0;
  const auto scaled = vp::replay_pathlines(profile, cluster_, config);
  EXPECT_GT(scaled.read_seconds, 5.0 * base.read_seconds);
  EXPECT_NEAR(scaled.compute_seconds, base.compute_seconds, 1e-9);
}

TEST_F(ReplayTest, LearningPassesImproveMarkov) {
  const auto profile = vp::profile_pathlines(*reader_, 0, 5, 8);
  vp::PathlineReplayConfig config;
  config.workers = 2;
  config.use_dms = true;
  config.warm_cache = false;
  config.prefetcher = "markov";
  config.blocks_per_step = reader_->meta().block_count();

  config.learning_passes = 0;
  const auto untrained = vp::replay_pathlines(profile, cluster_, config);
  config.learning_passes = 1;
  const auto trained = vp::replay_pathlines(profile, cluster_, config);
  EXPECT_LE(trained.demand_loads, untrained.demand_loads);
  EXPECT_GT(trained.prefetch_useful, untrained.prefetch_useful / 2);
}

TEST_F(ReplayTest, DeeperPrefetchPipelineHidesMoreLoads) {
  const auto profile = vp::profile_pathlines(*reader_, 0, 5, 8);
  vp::PathlineReplayConfig config;
  config.workers = 1;
  config.use_dms = true;
  config.warm_cache = false;
  config.prefetcher = "markov";
  config.learning_passes = 1;
  config.blocks_per_step = reader_->meta().block_count();
  config.read_bytes_scale = 10.0;  // loads large enough that depth matters

  config.prefetch_depth = 1;
  const auto shallow = vp::replay_pathlines(profile, cluster_, config);
  config.prefetch_depth = 4;
  const auto deep = vp::replay_pathlines(profile, cluster_, config);
  EXPECT_LE(deep.total_runtime, shallow.total_runtime + 1e-9);
}

TEST_F(ReplayTest, OversubscriptionCapsAtNodeCpuCount) {
  // 48 workers on the 24-CPU node: compute throughput saturates; runtime
  // must not beat a 24-worker run by more than scheduling noise.
  const auto w24 = run_iso(24, true, true);
  const auto w48 = run_iso(48, true, true);
  // Dispatch overhead grows with group size, so oversubscription actually
  // LOSES time — the qualitative reason the paper never runs >16 workers.
  EXPECT_GE(w48.total_runtime, w24.total_runtime * 0.9);
}
