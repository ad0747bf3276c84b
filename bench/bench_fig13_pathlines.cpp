/// \file bench_fig13_pathlines.cpp
/// Figure 13 — Engine, pathlines, total runtime for SimplePathlines vs
/// PathlinesDataMan over {1,2,4,8} workers. The headline here is the BAD
/// scalability: "every pathline has different computational efforts and
/// strongly varying block requirements", so statically distributed seeds
/// leave workers idle.

#include "bench_common.hpp"

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_engine();
  grid::DatasetReader reader(perf::engine_dir());
  const auto cluster = calibrated_cluster();

  std::fprintf(stderr, "[bench] profiling pathline traces (real integration)...\n");
  const auto profile = perf::profile_pathlines(reader, 0, reader.meta().timestep_count() - 1,
                                               /*seed_count=*/16);

  const std::vector<int> sweep{1, 2, 4, 8};
  auto run = [&](bool use_dms, bool warm) {
    perf::Series series;
    series.label = use_dms ? "PathlinesDataMan" : "SimplePathlines";
    for (const int workers : sweep) {
      perf::PathlineReplayConfig config;
      config.workers = workers;
      config.use_dms = use_dms;
      config.warm_cache = warm;
      config.prefetcher = "none";  // Fig. 13 isolates caching from prefetch
      config.blocks_per_step = reader.meta().block_count();
      // Model loads at the paper's original block size (1.12 GB / 63 / 23);
      // integration compute does not scale with block bytes, loads do.
      config.read_bytes_scale =
          (1.12 * (1ull << 30)) / static_cast<double>(reader.meta().total_bytes());
      const auto result = perf::replay_pathlines(profile, cluster, config);
      series.points.push_back({workers, result.total_runtime});
    }
    return series;
  };

  perf::print_banner("Figure 13", "Engine, Pathlines, total runtime [s]", perf::kDesReplay);
  std::vector<perf::Series> series;
  series.push_back(run(true, true));    // fully cached data
  series.push_back(run(false, false));  // no data management
  perf::print_worker_series(series, "total runtime, s");

  perf::print_expectation(
      "fully cached runtimes much lower than SimplePathlines, but scalability stays "
      "bad (load imbalance from statically distributed seeds)");

  bool ok = true;
  for (std::size_t r = 0; r < sweep.size(); ++r) {
    ok &= series[1].points[r].seconds > series[0].points[r].seconds;
  }
  const double speedup8 = series[0].points[0].seconds / series[0].points[3].seconds;
  perf::print_value("PathlinesDataMan speedup at 8 workers", speedup8, "x (of 8 ideal)");
  ok &= speedup8 < 7.0;  // visibly sub-linear
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
