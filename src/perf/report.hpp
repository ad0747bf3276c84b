#pragma once

/// \file report.hpp
/// Paper-style console reporting for the figure benches: each bench prints
/// the rows/series of its table or figure (with ASCII bars so the shape is
/// visible at a glance) plus the paper's reference values for comparison.

#include <string>
#include <vector>

namespace vira::perf {

/// One measured series point: (#workers, seconds).
struct SeriesPoint {
  int workers = 0;
  double seconds = 0.0;
};

struct Series {
  std::string label;
  std::vector<SeriesPoint> points;
};

/// What a bench's numbers come from; print_banner states it.
enum Measured {
  kDesReplay,  ///< DES replay of the calibrated virtual cluster; no runtime ran
  kRuntime,    ///< the real runtime (Backend or its parts) on the wall clock
  kKernels,    ///< the real kernels or codecs alone, timed on this host
  kUntimed,    ///< real code on synthetic inputs: counts, nothing timed
};

/// Prints a figure banner: id ("Figure 6"), caption and what was measured.
void print_banner(const std::string& figure, const std::string& caption, Measured measured);

/// Prints runtime series the way the paper's bar charts read: one row per
/// worker count, one bar per command.
void print_worker_series(const std::vector<Series>& series, const std::string& value_label);

/// Prints a single labelled value row.
void print_value(const std::string& label, double value, const std::string& unit);

/// Prints a percentage breakdown (Fig. 15 style pie as text).
void print_breakdown(const std::string& label, double compute, double read, double send);

/// Prints the paper's qualitative expectation next to our measurement.
void print_expectation(const std::string& text);

}  // namespace vira::perf
