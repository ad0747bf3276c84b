/// \file tcp_backend_demo.cpp
/// The distributed deployment of paper Fig. 2: the Viracocha backend
/// serves on a real TCP socket; the "visualization host" connects through
/// the network stack (here: loopback), submits a cut-plane command and
/// receives streamed fragments — byte-identical protocol to the in-process
/// path thanks to the layer-1 transport abstraction.
///
/// Run:  ./tcp_backend_demo [port]

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "algo/cfd_command.hpp"
#include "core/backend.hpp"
#include "grid/synthetic.hpp"
#include "viz/assembly.hpp"
#include "viz/session.hpp"

int main(int argc, char** argv) {
  using namespace vira;
  const auto requested_port = static_cast<std::uint16_t>(argc > 1 ? std::atoi(argv[1]) : 0);

  const auto dataset = (std::filesystem::temp_directory_path() / "vira_example_tcp").string();
  grid::ensure_dataset(dataset, [&] {
    grid::AbcFlow flow;
    grid::generate_box(dataset, flow, 1, 13, 13, 13, {0, 0, 0}, {6.28, 6.28, 6.28}, 0.1,
                       /*nblocks=*/4);
  });

  // --- server side ---------------------------------------------------------
  algo::register_builtin_commands();
  core::BackendConfig config;
  config.workers = 2;
  core::Backend backend(config);
  const auto port = backend.serve_tcp(requested_port);
  std::printf("backend listening on 127.0.0.1:%u\n", port);

  // --- client side (would normally be another process / machine) -----------
  auto link = comm::tcp_connect("127.0.0.1", port);
  viz::ExtractionSession session(std::shared_ptr<comm::ClientLink>(link.release()));
  std::printf("client connected over TCP\n");

  util::ParamList params;
  params.set("dataset", dataset);
  params.set_int("workers", 2);
  params.set_doubles("origin", {3.14, 3.14, 3.14});
  params.set_doubles("normal", {0.0, 0.0, 1.0});
  auto stream = session.submit("cutplane.dataman", params);

  viz::GeometryCollector collector;
  core::CommandStats stats;
  while (true) {
    auto packet = stream->next();
    if (!packet) {
      std::fprintf(stderr, "connection lost\n");
      return 1;
    }
    if (packet->kind == viz::Packet::Kind::kComplete) {
      stats = packet->stats;
      break;
    }
    collector.consume(*packet);
  }
  if (!stats.success) {
    std::fprintf(stderr, "command failed: %s\n", stats.error.c_str());
    return 1;
  }

  collector.flat_mesh().write_obj("tcp_cutplane.obj", "cutplane");
  std::printf("cut plane: %zu triangles over %llu streamed fragments -> tcp_cutplane.obj\n",
              collector.flat_mesh().triangle_count(),
              static_cast<unsigned long long>(stats.partial_packets));
  std::printf("runtime %.3fs, latency %.3fs — measured on the server, shipped over TCP\n",
              stats.total_runtime, stats.latency);
  return 0;
}
