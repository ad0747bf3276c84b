/// \file bench_fig11_vortex_prefetch.cpp
/// Figure 11 — Engine, λ2 runtime with and without prefetching, COLD
/// caches ("a good impression how Viracocha behaves in a total miss
/// scenario"). OBL prefetching overlaps I/O with computation; the benefit
/// shrinks with more workers ("the less time the computation takes, the
/// lower the number of prefetches that are possible").

#include "bench_common.hpp"

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_engine();
  grid::DatasetReader reader(perf::engine_dir());
  const auto threshold = static_cast<float>(perf::lambda2_threshold(reader));
  const auto cluster = calibrated_cluster();
  const auto profile = perf::profile_vortex(reader, 0, threshold);

  auto cold_config = [](bool prefetch) {
    return [prefetch](int workers) {
      perf::ReplayConfig config;
      config.workers = workers;
      config.use_dms = true;
      config.warm_cache = false;  // cold start
      config.prefetch = prefetch;
      return config;
    };
  };

  perf::print_banner("Figure 11",
                     "Engine, Lambda-2, runtime without and with prefetching (cold) [s]",
                     perf::kDesReplay);
  std::vector<perf::Series> series;
  series.push_back(
      sweep_extraction("without prefetching", profile, cluster, cold_config(false)));
  series.push_back(sweep_extraction("with prefetching", profile, cluster, cold_config(true)));
  perf::print_worker_series(series, "total runtime, s");

  perf::print_expectation(
      "computation optimally overlapped with I/O: prefetching wins at every worker "
      "count, and the absolute benefit shrinks as workers increase");

  bool ok = true;
  std::vector<double> benefit;
  for (std::size_t r = 0; r < kWorkerSweep.size(); ++r) {
    // Prefetching must win (within noise; at 16 workers the chunks are so
    // small that the paper's bars are equal too).
    ok &= series[1].points[r].seconds <= series[0].points[r].seconds * 1.02;
    benefit.push_back(series[0].points[r].seconds - series[1].points[r].seconds);
  }
  // Benefit at 1 worker exceeds benefit at 16 workers.
  ok &= benefit.front() > benefit.back();
  std::printf("\n  prefetch benefit: %.2fs at 1 worker, %.2fs at 16 workers\n",
              benefit.front(), benefit.back());
  std::printf("  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
