/// \file propfan_vortices.cpp
/// Figure 5 scenario: "Multiple steps of streamed Lambda-2 vortices inside
/// the Propfan". Runs the StreamedVortex command on the 144-block Propfan
/// dataset and dumps snapshots of the growing vortex system as fragments
/// arrive — plus the DMS statistics the run produced.
///
/// Run:  ./propfan_vortices [snapshot-prefix]

#include <cstdio>
#include <filesystem>

#include "algo/cfd_command.hpp"
#include "algo/lambda2.hpp"
#include "core/backend.hpp"
#include "grid/synthetic.hpp"
#include "viz/assembly.hpp"
#include "viz/session.hpp"

int main(int argc, char** argv) {
  using namespace vira;
  const std::string prefix = argc > 1 ? argv[1] : "propfan_vortices";

  const auto dataset = (std::filesystem::temp_directory_path() / "vira_example_propfan").string();
  grid::ensure_dataset(dataset, [&] {
    std::printf("generating Propfan dataset (144 blocks)...\n");
    grid::GeneratorConfig config;
    config.directory = dataset;
    config.timesteps = 1;
    config.ni = 10;
    config.nj = 8;
    config.nk = 7;
    grid::generate_propfan(config);
  });

  // λ2 threshold "about zero": a small way into the vortical range.
  grid::DatasetReader reader(dataset);
  float lambda2_min = 0.0f;
  for (int b = 0; b < reader.meta().block_count(); ++b) {
    auto block = reader.read_block(0, b);
    lambda2_min = std::min(lambda2_min, algo::compute_lambda2_field(block).first);
  }
  const double threshold = 0.02 * lambda2_min;
  std::printf("lambda2 range minimum %.3g, threshold %.3g\n", lambda2_min, threshold);

  algo::register_builtin_commands();
  core::BackendConfig config;
  config.workers = 4;
  core::Backend backend(config);
  viz::ExtractionSession session(backend.connect());

  util::ParamList params;
  params.set("dataset", dataset);
  params.set_double("iso", threshold);
  params.set_int("workers", 4);
  params.set_int("stream_cells", 128);
  auto stream = session.submit("vortex.streamed", params);

  viz::GeometryCollector collector;
  core::CommandStats stats;
  int snapshot = 0;
  std::size_t fragments = 0;
  while (true) {
    auto packet = stream->next();
    if (!packet) {
      return 1;
    }
    if (packet->kind == viz::Packet::Kind::kComplete) {
      stats = packet->stats;
      break;
    }
    if (collector.consume(*packet)) {
      ++fragments;
      // Snapshot every 8 fragments ("multiple steps of streamed vortices").
      if (fragments % 8 == 1 && snapshot < 4) {
        const std::string path = prefix + "_step" + std::to_string(snapshot++) + ".obj";
        collector.flat_mesh().write_obj(path, "vortices");
        std::printf("snapshot after %3zu fragments: %6zu triangles -> %s\n", fragments,
                    collector.flat_mesh().triangle_count(), path.c_str());
      }
    }
  }
  if (!stats.success) {
    std::fprintf(stderr, "command failed: %s\n", stats.error.c_str());
    return 1;
  }

  const std::string final_path = prefix + "_final.obj";
  collector.flat_mesh().write_obj(final_path, "vortices");
  std::printf("final vortex system: %zu triangles -> %s\n",
              collector.flat_mesh().triangle_count(), final_path.c_str());
  std::printf("latency %.3fs of %.3fs total, %llu fragments\n", stats.latency,
              stats.total_runtime, static_cast<unsigned long long>(stats.partial_packets));

  const auto counters = backend.dms_counters();
  std::printf("DMS: %llu requests, %.0f%% hit rate, %llu prefetches (%llu useful)\n",
              static_cast<unsigned long long>(counters.requests), 100.0 * counters.hit_rate(),
              static_cast<unsigned long long>(counters.prefetch_issued),
              static_cast<unsigned long long>(counters.prefetch_useful));
  return 0;
}
