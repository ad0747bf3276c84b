/// \file bench_micro_kernels.cpp
/// Scalar vs SIMD extraction-kernel throughput (DESIGN.md §13): the three
/// hot loops underneath the commands — λ2 field computation, active-cell
/// isosurface extraction and batched RK4 pathline integration — each timed
/// against its scalar reference on the same synthetic vortex block.
///
/// Emits BENCH_kernels.json (per kernel: scalar and SIMD cells/s and the
/// speedup) and exits non-zero if the λ2 SIMD path fails the ≥2× shape
/// check. `--smoke` shrinks block sizes and repetitions for CI.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "algo/integrator.hpp"
#include "algo/isosurface.hpp"
#include "algo/lambda2.hpp"
#include "grid/synthetic.hpp"
#include "perf/report.hpp"
#include "simd/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace vira;

grid::StructuredBlock make_vortex_block(int n) {
  grid::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  grid::StructuredBlock block(n, n, n);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        block.set_point(i, j, k,
                        {i / double(n - 1), j / double(n - 1), k / double(n - 1)});
      }
    }
  }
  grid::sample_fields(block, vortex, 0.0);
  return block;
}

/// Best-of-`reps` wall seconds of `fn` (min damps scheduler noise).
template <typename F>
double best_seconds(F&& fn, int reps) {
  double best = std::numeric_limits<double>::max();
  for (int r = 0; r < reps; ++r) {
    util::WallTimer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

struct KernelResult {
  std::string kernel;
  std::string unit;
  double scalar_rate = 0.0;  ///< items/s on the scalar reference path
  double simd_rate = 0.0;    ///< items/s on the SIMD path
  double speedup() const { return scalar_rate > 0.0 ? simd_rate / scalar_rate : 0.0; }
};

KernelResult bench_lambda2(int n, int reps) {
  auto block = make_vortex_block(n);
  const auto items = static_cast<double>(block.node_count());
  KernelResult r{"lambda2", "nodes_per_sec"};
  r.scalar_rate = items / best_seconds(
                              [&] {
                                algo::compute_lambda2_field(block, algo::kLambda2Field,
                                                            simd::Kernel::kScalar);
                              },
                              reps);
  r.simd_rate = items / best_seconds(
                            [&] {
                              algo::compute_lambda2_field(block, algo::kLambda2Field,
                                                          simd::Kernel::kSimd);
                            },
                            reps);
  return r;
}

KernelResult bench_isosurface(int n, int reps, float iso) {
  auto block = make_vortex_block(n);
  const auto items = static_cast<double>(block.cell_count());
  KernelResult r{"isosurface", "cells_per_sec"};
  r.scalar_rate = items / best_seconds(
                              [&] {
                                algo::TriangleMesh mesh;
                                algo::extract_isosurface(block, "density", iso, mesh, false,
                                                         simd::Kernel::kScalar);
                              },
                              reps);
  r.simd_rate = items / best_seconds(
                            [&] {
                              algo::TriangleMesh mesh;
                              algo::extract_isosurface(block, "density", iso, mesh, false,
                                                       simd::Kernel::kSimd);
                            },
                            reps);
  return r;
}

KernelResult bench_pathlines(int seeds, int reps) {
  // Bounded analytic field: every seed integrates until t1 or domain exit.
  grid::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  const math::Aabb domain{{0, 0, 0}, {1, 1, 1}};
  algo::IntegratorParams params;
  params.max_steps = 400;
  std::vector<math::Vec3> seed_points;
  for (int s = 0; s < seeds; ++s) {
    const double a = 0.15 + 0.7 * s / std::max(1, seeds - 1);
    seed_points.push_back({a, 0.35 + 0.3 * (s % 3) / 2.0, 0.5});
  }

  // Items = accepted integration steps, counted once on a reference run.
  algo::AnalyticProvider count_provider(vortex, domain);
  std::size_t steps = 0;
  for (const auto& seed : seed_points) {
    steps += algo::integrate_pathline(count_provider, seed, 0.0, 2.0, params).size();
  }
  const auto items = static_cast<double>(steps);

  KernelResult r{"rk4_pathlines", "steps_per_sec"};
  r.scalar_rate = items / best_seconds(
                              [&] {
                                algo::AnalyticProvider provider(vortex, domain);
                                for (const auto& seed : seed_points) {
                                  algo::integrate_pathline(provider, seed, 0.0, 2.0, params);
                                }
                              },
                              reps);
  r.simd_rate = items / best_seconds(
                            [&] {
                              algo::AnalyticProvider provider(vortex, domain);
                              algo::integrate_pathlines_batch(provider, seed_points, 0.0, 2.0,
                                                              params);
                            },
                            reps);
  return r;
}

void write_json(const std::vector<KernelResult>& results, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"micro_kernels\",\n  \"simd_level\": \""
      << simd::level_name(simd::active_level()) << "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"kernel\": \"%s\", \"unit\": \"%s\", \"scalar\": %.0f, "
                  "\"simd\": %.0f, \"speedup\": %.2f}%s\n",
                  r.kernel.c_str(), r.unit.c_str(), r.scalar_rate, r.simd_rate, r.speedup(),
                  i + 1 < results.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int n = smoke ? 32 : 64;
  const int reps = smoke ? 3 : 7;

  std::vector<KernelResult> results;
  results.push_back(bench_lambda2(n, reps));
  results.push_back(bench_isosurface(n, reps, 1.18f));
  results.push_back(bench_pathlines(smoke ? 16 : 64, reps));

  perf::print_banner("Extraction micro kernels",
                     "scalar vs SIMD throughput (vira::simd dispatch)", perf::kKernels);
  std::printf("\n  simd level: %s\n\n", simd::level_name(simd::active_level()));
  std::printf("  %-16s %-14s %14s %14s %9s\n", "kernel", "unit", "scalar", "simd", "speedup");
  for (const auto& r : results) {
    std::printf("  %-16s %-14s %14.3e %14.3e %8.2fx\n", r.kernel.c_str(), r.unit.c_str(),
                r.scalar_rate, r.simd_rate, r.speedup());
  }

  write_json(results, "BENCH_kernels.json");
  std::printf("\n  wrote BENCH_kernels.json\n");
  perf::print_expectation("lambda2 SIMD >= 2x scalar; all SIMD paths >= ~scalar");

  const bool ok = results[0].speedup() >= 2.0;
  std::printf("\n  shape check: %s (lambda2 %.2fx)\n", ok ? "PASS" : "FAIL",
              results[0].speedup());
  return ok ? 0 : 1;
}
