/// \file bench_fig12_vortex_latency.cpp
/// Figure 12 — Propfan, latency times for vortex extraction:
/// StreamedVortex vs VortexDataMan. The paper's flagship streaming number:
/// ~4.2 s to the first partial result against ~45 s to the final package
/// at 16 workers.

#include "bench_common.hpp"

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_propfan();
  grid::DatasetReader reader(perf::propfan_dir());
  const auto threshold = static_cast<float>(perf::lambda2_threshold(reader));
  const auto cluster = calibrated_cluster();
  const auto profile = perf::profile_vortex(reader, 0, threshold, 256);

  perf::print_banner("Figure 12", "Propfan, latency times for vortex extraction [s]",
                     perf::kDesReplay);
  std::vector<perf::Series> series;
  series.push_back(sweep_extraction("StreamedVortex", profile, cluster, streaming_config,
                                    /*use_latency=*/true));
  series.push_back(sweep_extraction("VortexDataMan", profile, cluster, dataman_config,
                                    /*use_latency=*/true));
  perf::print_worker_series(series, "latency, s");

  const double ratio_at_16 = series[1].points.back().seconds /
                             std::max(1e-9, series[0].points.back().seconds);
  perf::print_value("final/first-result ratio at 16 workers", ratio_at_16, "x");
  perf::print_expectation(
      "~4.2 s to the first partial vs ~45 s to the final result at 16 workers "
      "(≈10x); streamed latency roughly flat in the worker count");

  bool ok = true;
  for (std::size_t r = 0; r < kWorkerSweep.size(); ++r) {
    ok &= series[0].points[r].seconds < series[1].points[r].seconds;
  }
  ok &= ratio_at_16 > 3.0;  // first results long before the final package
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
