#include "perf/report.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "obs/timeline.hpp"

namespace vira::perf {

void print_banner(const std::string& figure, const std::string& caption, Measured measured) {
  static const char* const kSources[] = {
      "DES replay of the calibrated virtual cluster, driven by real\n"
      " per-block costs; no runtime ran. See DESIGN.md / EXPERIMENTS.md",
      "real runtime on this host, timed on the wall clock",
      "real kernels alone on this host, timed directly; no runtime ran",
      "counted by the real code on synthetic inputs; nothing timed"};
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("(%s)\n", kSources[measured]);
  std::printf("================================================================\n");
}

void print_worker_series(const std::vector<Series>& series, const std::string& value_label) {
  if (series.empty()) {
    return;
  }
  double peak = 0.0;
  for (const auto& s : series) {
    for (const auto& p : s.points) {
      peak = std::max(peak, p.seconds);
    }
  }
  if (peak <= 0.0) {
    peak = 1.0;
  }

  std::printf("%-10s", "#Workers");
  for (const auto& s : series) {
    std::printf("  %-18s", s.label.c_str());
  }
  std::printf("   [%s]\n", value_label.c_str());

  const std::size_t rows = series.front().points.size();
  for (std::size_t r = 0; r < rows; ++r) {
    std::printf("%-10d", series.front().points[r].workers);
    for (const auto& s : series) {
      std::printf("  %-18.3f", s.points[r].seconds);
    }
    std::printf("\n");
  }
  // ASCII shape per series.
  for (const auto& s : series) {
    std::printf("  %s\n", s.label.c_str());
    for (const auto& p : s.points) {
      const int width = static_cast<int>(46.0 * p.seconds / peak);
      std::printf("    %3d | %s %.3f\n", p.workers, std::string(width, '#').c_str(), p.seconds);
    }
  }
}

void print_value(const std::string& label, double value, const std::string& unit) {
  std::printf("  %-42s %12.4f %s\n", label.c_str(), value, unit.c_str());
}

void print_breakdown(const std::string& label, double compute, double read, double send) {
  // Thin adapter: the percentage math lives in obs::TimelineReport so every
  // bench/tool renders the same breakdown (ISSUE 2).
  obs::TimelineReport::from_phases({{"compute", compute}, {"read", read}, {"send", send}})
      .print(std::cout, label);
}

void print_expectation(const std::string& text) {
  std::printf("  paper: %s\n", text.c_str());
}

}  // namespace vira::perf
