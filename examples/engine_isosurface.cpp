/// \file engine_isosurface.cpp
/// Figure 4 scenario: view-dependent isosurface STREAMING on the Engine
/// dataset. The parts of the surface nearest the viewer arrive first
/// ("left: first results, right: final isosurface"); this example captures
/// the progression as OBJ snapshots after 10%, 50% and 100% of the
/// fragments.
///
/// Run:  ./engine_isosurface [snapshot-prefix]

#include <cstdio>
#include <filesystem>

#include "algo/cfd_command.hpp"
#include "core/backend.hpp"
#include "grid/synthetic.hpp"
#include "viz/assembly.hpp"
#include "viz/session.hpp"

int main(int argc, char** argv) {
  using namespace vira;
  const std::string prefix = argc > 1 ? argv[1] : "engine_iso";

  // A reduced Engine (23 blocks, 2 steps) generated on the fly.
  const auto dataset = (std::filesystem::temp_directory_path() / "vira_example_engine").string();
  grid::ensure_dataset(dataset, [&] {
    std::printf("generating Engine dataset (23 blocks)...\n");
    grid::GeneratorConfig config;
    config.directory = dataset;
    config.timesteps = 2;
    config.ni = 14;
    config.nj = 11;
    config.nk = 9;
    grid::generate_engine(config);
  });

  // Pick a valid iso value from the density range.
  grid::DatasetReader reader(dataset);
  float lo = 1e30f;
  float hi = -1e30f;
  for (int b = 0; b < reader.meta().block_count(); ++b) {
    const auto [blo, bhi] = reader.read_block(0, b).scalar_range("density");
    lo = std::min(lo, blo);
    hi = std::max(hi, bhi);
  }
  const double iso = 0.5 * (lo + hi);

  algo::register_builtin_commands();
  core::BackendConfig config;
  config.workers = 4;
  core::Backend backend(config);
  viz::ExtractionSession session(backend.connect());

  // The viewer looks into the cylinder from below the piston.
  util::ParamList params;
  params.set("dataset", dataset);
  params.set("field", "density");
  params.set_double("iso", iso);
  params.set_int("workers", 4);
  params.set_doubles("viewpoint", {0.0, -0.15, -0.05});
  params.set_int("stream_cells", 96);
  auto stream = session.submit("iso.viewer", params);

  viz::GeometryCollector collector;
  std::vector<viz::Packet> packets;
  core::CommandStats stats;
  while (true) {
    auto packet = stream->next();
    if (!packet) {
      return 1;
    }
    if (packet->kind == viz::Packet::Kind::kComplete) {
      stats = packet->stats;
      break;
    }
    if (packet->kind == viz::Packet::Kind::kPartial) {
      packets.push_back(std::move(*packet));
    }
  }
  if (!stats.success) {
    std::fprintf(stderr, "command failed: %s\n", stats.error.c_str());
    return 1;
  }

  // Re-play the stream into snapshots (exactly what a render loop would
  // have shown at those moments).
  const std::size_t milestones[] = {packets.size() / 10, packets.size() / 2, packets.size()};
  const char* labels[] = {"first", "half", "final"};
  std::size_t cursor = 0;
  for (int m = 0; m < 3; ++m) {
    for (; cursor < milestones[m]; ++cursor) {
      collector.consume(packets[cursor]);
    }
    const auto mesh = collector.flat_mesh();
    const std::string path = prefix + "_" + labels[m] + ".obj";
    mesh.write_obj(path, labels[m]);
    std::printf("%-6s %6zu triangles -> %s\n", labels[m], mesh.triangle_count(), path.c_str());
  }
  std::printf("streamed %llu fragments; latency %.3fs of %.3fs total\n",
              static_cast<unsigned long long>(stats.partial_packets), stats.latency,
              stats.total_runtime);
  return 0;
}
