/// \file bench_fig14_pathline_prefetch.cpp
/// Figure 14 — prefetching influence on pathline computation (Engine),
/// COLD caches: the Markov prefetcher learns block-to-block transitions
/// and overlaps I/O with integration ("runtime savings up to 40% ... a
/// maximum of 95% cache misses could be eliminated ... naive sequential
/// prefetchers such as OBL fail in these cases").

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
  auto run = [&](const std::string& prefetcher) {
    perf::Series series;
    series.label = prefetcher == "none" ? "without prefetching" : "with " + prefetcher;
    for (const int workers : sweep) {
      perf::PathlineReplayConfig config;
      config.workers = workers;
      config.use_dms = true;
      config.warm_cache = false;  // uncached, "otherwise prefetching would be unnecessary"
      config.prefetcher = prefetcher;
      config.blocks_per_step = reader.meta().block_count();
      // Model loads at the paper's original block size (1.12 GB / 63 / 23);
      // integration compute does not scale with block bytes, loads do.
      config.read_bytes_scale =
          (1.12 * (1ull << 30)) / static_cast<double>(reader.meta().total_bytes());
      // One prior execution of the same command populates the Markov graph
      // ("after a learning phase ... predicted quite well", Sec. 7.3).
      config.learning_passes = prefetcher == "none" ? 0 : 1;
      const auto result = perf::replay_pathlines(profile, cluster, config);
      series.points.push_back({workers, result.total_runtime});
    }
    return series;
  };

  perf::print_banner("Figure 14", "Prefetching influence on pathline computation (Engine) [s]",
                     perf::kDesReplay);
  std::vector<perf::Series> series;
  series.push_back(run("none"));
  series.push_back(run("markov"));
  series.push_back(run("obl"));
  perf::print_worker_series(series, "total runtime, s");

  // Miss elimination at 1 worker.
  perf::PathlineReplayConfig config;
  config.workers = 1;
  config.use_dms = true;
  config.warm_cache = false;
  config.blocks_per_step = reader.meta().block_count();
  config.read_bytes_scale =
      (1.12 * (1ull << 30)) / static_cast<double>(reader.meta().total_bytes());
  config.prefetcher = "none";
  config.learning_passes = 0;
  const auto baseline = perf::replay_pathlines(profile, cluster, config);
  config.prefetcher = "markov";
  config.learning_passes = 1;
  const auto markov = perf::replay_pathlines(profile, cluster, config);
  config.prefetcher = "obl";
  const auto obl = perf::replay_pathlines(profile, cluster, config);

  const double eliminated =
      100.0 * (1.0 - static_cast<double>(markov.demand_loads) /
                         static_cast<double>(baseline.demand_loads));
  const double eliminated_obl =
      100.0 * (1.0 - static_cast<double>(obl.demand_loads) /
                         static_cast<double>(baseline.demand_loads));
  perf::print_value("markov: demand misses eliminated", eliminated, "%");
  perf::print_value("obl:    demand misses eliminated", eliminated_obl, "%");
  perf::print_value("markov runtime saving at 1 worker",
                    100.0 * (1.0 - markov.total_runtime / baseline.total_runtime), "%");

  perf::print_expectation(
      "markov saves up to ~40% runtime and eliminates up to ~95% of misses; OBL is "
      "clearly weaker on the non-uniform block requests of time-dependent tracing");

  bool ok = true;
  for (std::size_t r = 0; r < sweep.size(); ++r) {
    ok &= series[1].points[r].seconds < series[0].points[r].seconds;  // markov helps
  }
  ok &= eliminated > eliminated_obl;  // markov beats OBL
  ok &= eliminated > 50.0;
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
