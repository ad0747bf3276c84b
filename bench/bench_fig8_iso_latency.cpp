/// \file bench_fig8_iso_latency.cpp
/// Figure 8 — Propfan, latency times for isosurface extraction:
/// ViewerIso (streamed) vs IsoDataMan (first data = the final package).

#include "bench_common.hpp"

int main() {
  using namespace vira;
  using namespace vira::bench;

  perf::ensure_propfan();
  grid::DatasetReader reader(perf::propfan_dir());
  const auto iso = static_cast<float>(perf::density_iso_mid(reader));
  const auto cluster = calibrated_cluster();

  const auto iso_profile = perf::profile_iso(reader, 0, "density", iso, 256);
  const auto viewer_profile = perf::profile_viewer_iso(reader, 0, "density", iso, 256);

  perf::print_banner("Figure 8", "Propfan, latency times for isosurface extraction [s]",
                     perf::kDesReplay);
  std::vector<perf::Series> series;
  series.push_back(sweep_extraction("ViewerIso", viewer_profile, cluster, streaming_config,
                                    /*use_latency=*/true));
  series.push_back(sweep_extraction("IsoDataMan", iso_profile, cluster, dataman_config,
                                    /*use_latency=*/true));
  perf::print_worker_series(series, "latency, s");

  perf::print_expectation(
      "streamed first results appear very quickly and are almost constant in the "
      "worker count; IsoDataMan latency equals its total runtime");

  bool ok = true;
  for (std::size_t r = 0; r < kWorkerSweep.size(); ++r) {
    ok &= series[0].points[r].seconds < series[1].points[r].seconds;
  }
  // Roughly constant streamed latency. The paper itself notes "slight
  // differences ... explained by the varying sizes of selected blocks
  // processed first", so allow that spread — but it must stay an order of
  // magnitude below the non-streamed latency at 1 worker.
  double lo = 1e300;
  double hi = 0.0;
  for (const auto& p : series[0].points) {
    lo = std::min(lo, p.seconds);
    hi = std::max(hi, p.seconds);
  }
  ok &= hi / lo < 8.0;
  ok &= hi < 0.25 * series[1].points[0].seconds;
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
