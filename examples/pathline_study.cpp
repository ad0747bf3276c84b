/// \file pathline_study.cpp
/// Unsteady particle tracing with the DMS Markov prefetcher (paper
/// Sec. 6.3 / 7.3): seeds a cloud of particles into the Engine intake flow,
/// integrates pathlines across the time steps twice — the second run shows
/// the warm cache and the learned block-transition graph at work — and
/// writes the traces as OBJ polylines.
///
/// Run:  ./pathline_study [output.obj]

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "algo/cfd_command.hpp"
#include "core/backend.hpp"
#include "grid/synthetic.hpp"
#include "viz/assembly.hpp"
#include "viz/session.hpp"

int main(int argc, char** argv) {
  using namespace vira;
  const std::string output = argc > 1 ? argv[1] : "pathlines.obj";

  const auto dataset =
      (std::filesystem::temp_directory_path() / "vira_example_engine_t8").string();
  grid::ensure_dataset(dataset, [&] {
    std::printf("generating unsteady Engine dataset (8 time steps)...\n");
    grid::GeneratorConfig config;
    config.directory = dataset;
    config.timesteps = 8;
    config.ni = 12;
    config.nj = 9;
    config.nk = 8;
    grid::generate_engine(config);
  });

  algo::register_builtin_commands();
  core::BackendConfig config;
  config.workers = 2;
  core::Backend backend(config);
  viz::ExtractionSession session(backend.connect());

  util::ParamList params;
  params.set("dataset", dataset);
  params.set_int("workers", 2);
  // Seed a ring of particles inside the swirl (r = 22 mm, upper cylinder).
  std::vector<double> seeds;
  for (int n = 0; n < 12; ++n) {
    const double angle = 2.0 * 3.14159265358979 * n / 12.0;
    seeds.push_back(0.022 * std::cos(angle));
    seeds.push_back(0.022 * std::sin(angle));
    seeds.push_back(0.065);
  }
  params.set_doubles("seeds", seeds);
  params.set_int("step0", 0);
  params.set_int("step1", 7);
  params.set("prefetch", "markov");
  params.set_double("tolerance", 1e-4);

  auto run_once = [&](const char* label) {
    auto stream = session.submit("pathlines.dataman", params);
    std::vector<util::ByteBuffer> fragments;
    const auto stats = stream->wait(&fragments);
    if (!stats.success) {
      std::fprintf(stderr, "%s run failed: %s\n", label, stats.error.c_str());
      std::exit(1);
    }
    const auto counters = backend.dms_counters();
    std::printf("%-12s runtime %.3fs | DMS so far: %llu requests, %.0f%% hits, "
                "%llu prefetches (%llu useful)\n",
                label, stats.total_runtime,
                static_cast<unsigned long long>(counters.requests),
                100.0 * counters.hit_rate(),
                static_cast<unsigned long long>(counters.prefetch_issued),
                static_cast<unsigned long long>(counters.prefetch_useful));
    return fragments;
  };

  // Cold run: compulsory misses; the Markov prefetcher is still learning.
  auto fragments = run_once("cold run");
  // Warm run: caches hold the blocks, the transition graph is populated.
  fragments = run_once("warm run");

  // Assemble and export the traces.
  viz::GeometryCollector collector;
  for (auto& buffer : fragments) {
    viz::Packet packet;
    packet.kind = viz::Packet::Kind::kFinal;
    packet.payload = std::move(buffer);
    collector.consume(packet);
  }
  const auto& lines = collector.lines();
  lines.write_obj(output);
  std::printf("%zu pathlines (%zu points) -> %s\n", lines.line_count(), lines.total_points(),
              output.c_str());

  // A little physics: report residence time per particle.
  for (std::size_t l = 0; l < std::min<std::size_t>(4, lines.line_count()); ++l) {
    const auto times = lines.line_times(l);
    if (!times.empty()) {
      std::printf("  particle %zu: %zu points, t = %.4f .. %.4f s\n", l, times.size(),
                  times.front(), times.back());
    }
  }
  return 0;
}
