/// \file bench_micro_kernels.cpp
/// Scalar vs SIMD extraction-kernel throughput (DESIGN.md §13): the three
/// hot loops underneath the commands — λ2 field computation, active-cell
/// isosurface extraction and batched RK4 pathline integration — each timed
/// against its scalar reference on the same synthetic vortex block.
///
/// Two rungs time the kernels at the size commands run them: λ2 on one
/// curvilinear Engine-shaped block (22×16×12 nodes), and the active-cell
/// mask alone over that block's 21-cell rows against the scalar per-cell
/// predicate (algo::cell_is_active).
///
/// A last rung times the block decode every command pays before its
/// kernel: StructuredBlock::deserialize of one Engine-shaped block (22×16×12
/// nodes, density and pressure) in a loop, in MB of blob per second.
///
/// Emits BENCH_kernels.json (per kernel: scalar and SIMD items/s and the
/// speedup; the decode rate, ungated) and exits non-zero if the λ2 SIMD
/// path on the cube fails its shape check: ≥5× scalar at the avx2 level,
/// ≥2× at the generic level. `--smoke` shrinks block sizes and repetitions
/// for CI.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
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
#include "simd/kernels.hpp"
#include "simd/simd.hpp"
#include "util/byte_buffer.hpp"
#include "util/timer.hpp"

namespace {

using namespace vira;

grid::StructuredBlock make_vortex_block(int ni, int nj, int nk) {
  grid::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  grid::StructuredBlock block(ni, nj, nk);
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        block.set_point(i, j, k,
                        {i / double(ni - 1), j / double(nj - 1), k / double(nk - 1)});
      }
    }
  }
  grid::sample_fields(block, vortex, 0.0);
  return block;
}

/// Engine-shaped curvilinear block: 22×16×12 nodes on a smoothly warped
/// grid, so the metric terms differ from node to node.
grid::StructuredBlock make_engine_block() {
  constexpr int ni = 22;
  constexpr int nj = 16;
  constexpr int nk = 12;
  constexpr double kTwoPi = 6.283185307179586;
  grid::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  grid::StructuredBlock block(ni, nj, nk);
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        const double u = i / double(ni - 1);
        const double v = j / double(nj - 1);
        const double w = k / double(nk - 1);
        block.set_point(i, j, k,
                        {u + 0.08 * std::sin(kTwoPi * v) * w, v + 0.06 * std::sin(kTwoPi * u),
                         w + 0.05 * std::cos(kTwoPi * u) * v});
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

/// λ2 over `block`, `iters` times per timed repetition.
KernelResult bench_lambda2(grid::StructuredBlock block, const char* name, int iters, int reps) {
  const auto items = static_cast<double>(block.node_count()) * iters;
  auto run = [&](simd::Kernel kernel) {
    for (int i = 0; i < iters; ++i) {
      algo::compute_lambda2_field(block, algo::kLambda2Field, kernel);
    }
  };
  KernelResult r{name, "nodes_per_sec"};
  r.scalar_rate = items / best_seconds([&] { run(simd::Kernel::kScalar); }, reps);
  r.simd_rate = items / best_seconds([&] { run(simd::Kernel::kSimd); }, reps);
  return r;
}

/// The active-cell mask alone over every 21-cell row of an Engine-shaped
/// block, against the scalar per-cell predicate. Both sides count the
/// active cells they find; a mismatch is reported as a failed rung.
KernelResult bench_cell_mask(int iters, int reps, bool& counts_match) {
  auto block = make_engine_block();
  const auto density = block.scalar("density");
  const auto range = block.scalar_range("density");
  const float iso = 0.5f * (range.first + range.second);
  const int ncells = block.cells_i();
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(ncells));
  std::size_t scalar_active = 0;
  std::size_t simd_active = 0;
  auto rows = [&](auto&& row_fn) {
    for (int k = 0; k < block.cells_k(); ++k) {
      for (int j = 0; j < block.cells_j(); ++j) {
        row_fn(&density[block.node_index(0, j, k)], &density[block.node_index(0, j + 1, k)],
               &density[block.node_index(0, j, k + 1)],
               &density[block.node_index(0, j + 1, k + 1)]);
      }
    }
  };
  auto scalar_pass = [&] {
    scalar_active = 0;
    for (int i = 0; i < iters; ++i) {
      rows([&](const float* a, const float* b, const float* c, const float* d) {
        for (int x = 0; x < ncells; ++x) {
          const std::array<float, 8> corners = {a[x], a[x + 1], b[x], b[x + 1],
                                                c[x], c[x + 1], d[x], d[x + 1]};
          mask[x] = algo::cell_is_active(corners, iso) ? 1 : 0;
        }
        scalar_active += static_cast<std::size_t>(std::count(mask.begin(), mask.end(), 1));
      });
    }
  };
  auto simd_pass = [&] {
    simd_active = 0;
    for (int i = 0; i < iters; ++i) {
      rows([&](const float* a, const float* b, const float* c, const float* d) {
        simd::active_cell_mask(a, b, c, d, ncells, iso, mask.data());
        simd_active += static_cast<std::size_t>(std::count(mask.begin(), mask.end(), 1));
      });
    }
  };
  const auto items = static_cast<double>(block.cell_count()) * iters;
  KernelResult r{"iso_mask_21cell_rows", "cells_per_sec"};
  r.scalar_rate = items / best_seconds(scalar_pass, reps);
  r.simd_rate = items / best_seconds(simd_pass, reps);
  counts_match = scalar_active == simd_active && simd_active > 0;
  return r;
}

KernelResult bench_isosurface(int n, int reps, float iso) {
  auto block = make_vortex_block(n, n, n);
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

struct DecodeResult {
  std::uint64_t blob_bytes = 0;
  double us_per_block = 0.0;
  double mb_per_s() const { return us_per_block > 0.0 ? blob_bytes / us_per_block : 0.0; }
};

/// Best-of-`reps` mean time of `iters` back-to-back decodes of one blob.
/// Each decoded block dies before the next decode, as in a command's loop.
DecodeResult bench_decode(int iters, int reps) {
  const auto block = make_vortex_block(22, 16, 12);
  util::ByteBuffer blob;
  block.serialize(blob);
  const double seconds = best_seconds(
      [&] {
        for (int i = 0; i < iters; ++i) {
          util::ByteReader reader(blob.bytes());
          (void)grid::StructuredBlock::deserialize(reader);
        }
      },
      reps);
  return {blob.size(), seconds / iters * 1e6};
}

void write_json(const std::vector<KernelResult>& results, const DecodeResult& decode,
                const char* path) {
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
  char line[256];
  std::snprintf(line, sizeof(line),
                "  ],\n  \"decode\": {\"block\": \"22x16x12\", \"blob_bytes\": %llu, "
                "\"us_per_block\": %.2f, \"mb_per_s\": %.0f}\n}\n",
                static_cast<unsigned long long>(decode.blob_bytes), decode.us_per_block,
                decode.mb_per_s());
  out << line;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int n = smoke ? 32 : 64;
  const int reps = smoke ? 3 : 7;

  std::vector<KernelResult> results;
  results.push_back(bench_lambda2(make_vortex_block(n, n, n), "lambda2", 1, reps));
  results.push_back(bench_isosurface(n, reps, 1.18f));
  results.push_back(bench_pathlines(smoke ? 16 : 64, reps));
  results.push_back(
      bench_lambda2(make_engine_block(), "lambda2_22x16x12", smoke ? 20 : 100, reps));
  bool mask_counts_match = false;
  results.push_back(bench_cell_mask(smoke ? 50 : 500, reps, mask_counts_match));
  const auto decode = bench_decode(smoke ? 200 : 2000, reps);

  perf::print_banner("Extraction micro kernels",
                     "scalar vs SIMD throughput (vira::simd dispatch)", perf::kKernels);
  std::printf("\n  simd level: %s\n\n", simd::level_name(simd::active_level()));
  std::printf("  %-20s %-14s %14s %14s %9s\n", "kernel", "unit", "scalar", "simd", "speedup");
  for (const auto& r : results) {
    std::printf("  %-20s %-14s %14.3e %14.3e %8.2fx\n", r.kernel.c_str(), r.unit.c_str(),
                r.scalar_rate, r.simd_rate, r.speedup());
  }
  std::printf("\n  block decode (22x16x12, %llu B blob): %.2f us/block, %.0f MB/s\n",
              static_cast<unsigned long long>(decode.blob_bytes), decode.us_per_block,
              decode.mb_per_s());

  write_json(results, decode, "BENCH_kernels.json");
  std::printf("\n  wrote BENCH_kernels.json\n");
  perf::print_expectation(
      "lambda2 SIMD >= 5x scalar at avx2 (>= 2x at generic); all SIMD paths >= ~scalar");

  const double lambda2_floor = simd::active_level() == simd::Level::kAvx2 ? 5.0 : 2.0;
  const bool ok = results[0].speedup() >= lambda2_floor && mask_counts_match;
  std::printf("\n  shape check: %s (lambda2 %.2fx, floor %.0fx; mask active counts %s)\n",
              ok ? "PASS" : "FAIL", results[0].speedup(), lambda2_floor,
              mask_counts_match ? "match" : "DIFFER");
  return ok ? 0 : 1;
}
