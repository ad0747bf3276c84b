/// \file bench_table1_datasets.cpp
/// Table 1 — "Multi-block test data sets": time steps, blocks, size on
/// disk for Engine and Propfan. Block and time-step counts must match the
/// paper exactly; the on-disk size is resolution-scaled (DESIGN.md).

#include <cstdio>

#include "perf/report.hpp"
#include "perf/testbed.hpp"
#include "util/string_util.hpp"

int main() {
  using namespace vira;

  perf::print_banner("Table 1", "Multi-block test data sets", perf::kUntimed);
  const auto engine = perf::ensure_engine();
  const auto propfan = perf::ensure_propfan();

  std::printf("\n%-18s %-14s %-14s\n", "", "Engine", "Propfan");
  std::printf("%-18s %-14d %-14d\n", "# of time steps", engine.timestep_count(),
              propfan.timestep_count());
  std::printf("%-18s %-14d %-14d\n", "# of blocks", engine.block_count(),
              propfan.block_count());
  std::printf("%-18s %-14s %-14s\n", "Size on disk",
              util::human_bytes(engine.total_bytes()).c_str(),
              util::human_bytes(propfan.total_bytes()).c_str());

  std::printf("\n");
  perf::print_expectation("63 steps / 23 blocks / 1.12 GB and 50 steps / 144 blocks / 19.5 GB");
  std::printf(
      "  note: step and block counts reproduce the paper exactly; node\n"
      "  resolution (and therefore bytes) is scaled down — the original\n"
      "  RWTH/DLR data is proprietary (see DESIGN.md, substitutions).\n");

  const bool counts_ok = engine.timestep_count() == 63 && engine.block_count() == 23 &&
                         propfan.timestep_count() == 50 && propfan.block_count() == 144;
  std::printf("\n  structure check: %s\n", counts_ok ? "PASS" : "FAIL");
  return counts_ok ? 0 : 1;
}
