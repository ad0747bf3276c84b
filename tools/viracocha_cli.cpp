/// \file viracocha_cli.cpp
/// Command-line Viracocha client.
///
/// Connects to a running viracocha-server, submits one command and writes
/// the assembled geometry to an OBJ file — the smallest possible
/// "visualization host". Can also run self-contained (--local-workers)
/// with an in-process backend, which is how the vira-obs-smoke ctest
/// exercises the tracing pipeline end-to-end.
///
///   viracocha-cli --host H --port N --command NAME [--out FILE]
///                 [--local-workers N] [--synthetic DIR]
///                 [--kernel scalar|simd|auto]
///                 [--trace-out FILE] [--metrics-out FILE]
///                 [key=value ...]
///
/// Examples:
///   viracocha-cli --port 5999 --command query.field_range
///       dataset=/data/engine field=density
///   viracocha-cli --port 5999 --command iso.dataman --out surface.obj
///       dataset=/data/engine field=density iso=0.85 workers=4
///   viracocha-cli --local-workers 2 --synthetic /tmp/ds --command iso.viewer
///       --trace-out trace.json --metrics-out metrics.txt field=density

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "algo/cfd_command.hpp"
#include "core/backend.hpp"
#include "grid/dataset_io.hpp"
#include "grid/synthetic.hpp"
#include "obs/tracer.hpp"
#include "simd/simd.hpp"
#include "viz/assembly.hpp"
#include "viz/session.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: viracocha-cli [--host H] [--port N] --command NAME [--out FILE]\n"
               "                     [--local-workers N] [--synthetic DIR]\n"
               "                     [--kernel scalar|simd|auto]\n"
               "                     [--trace-out FILE] [--metrics-out FILE]\n"
               "                     [key=value ...]\n");
}

/// Generates the small synthetic Engine dataset at `dir` unless a readable
/// one is already there (same fixture recipe the test-suite uses).
void ensure_synthetic_dataset(const std::string& dir) {
  vira::grid::ensure_dataset(dir, [&] {
    vira::grid::GeneratorConfig config;
    config.directory = dir;
    config.timesteps = 2;
    config.ni = 9;
    config.nj = 7;
    config.nk = 6;
    vira::grid::generate_engine(config);
  });
}

/// Mid-range "density" iso value for a dataset — a level that always cuts
/// the synthetic Engine flow, so smoke runs stream real geometry.
double density_iso_mid(const std::string& dir, const std::string& field) {
  vira::grid::DatasetReader reader(dir);
  float lo = 1e30f;
  float hi = -1e30f;
  for (int b = 0; b < reader.meta().block_count(); ++b) {
    const auto [blo, bhi] = reader.read_block(0, b).scalar_range(field);
    lo = std::min(lo, blo);
    hi = std::max(hi, bhi);
  }
  return 0.5 * (static_cast<double>(lo) + static_cast<double>(hi));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vira;

  std::string host = "127.0.0.1";
  std::uint16_t port = 5999;
  std::string command;
  std::string out_path;
  std::string trace_out;
  std::string metrics_out;
  std::string synthetic_dir;
  int local_workers = 0;
  util::ParamList params;

  for (int arg = 1; arg < argc; ++arg) {
    const std::string token = argv[arg];
    auto next = [&]() -> const char* {
      if (arg + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++arg];
    };
    if (token == "--host") {
      host = next();
    } else if (token == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (token == "--command") {
      command = next();
    } else if (token == "--out") {
      out_path = next();
    } else if (token == "--trace-out") {
      trace_out = next();
    } else if (token == "--metrics-out") {
      metrics_out = next();
    } else if (token == "--local-workers") {
      local_workers = std::atoi(next());
    } else if (token == "--synthetic") {
      synthetic_dir = next();
    } else if (token == "--kernel") {
      const std::string value = next();
      const auto kernel = vira::simd::parse_kernel(value);
      if (!kernel) {
        std::fprintf(stderr, "unknown --kernel: %s (want scalar|simd|auto)\n", value.c_str());
        return 2;
      }
      vira::simd::set_default_kernel(*kernel);
    } else if (token == "--help" || token == "-h") {
      usage();
      return 0;
    } else if (token.find('=') != std::string::npos) {
      const auto split = token.find('=');
      params.set(token.substr(0, split), token.substr(split + 1));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", token.c_str());
      usage();
      return 2;
    }
  }
  if (command.empty()) {
    usage();
    return 2;
  }

  if (!trace_out.empty()) {
    obs::Tracer::instance().enable();
  }

  if (!synthetic_dir.empty()) {
    try {
      ensure_synthetic_dataset(synthetic_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot generate synthetic dataset: %s\n", e.what());
      return 1;
    }
    if (!params.contains("dataset")) {
      params.set("dataset", synthetic_dir);
    }
    const std::string field = params.get_or("field", "density");
    if (command.rfind("iso.", 0) == 0 && !params.contains("iso")) {
      params.set_double("iso", density_iso_mid(params.get_or("dataset", ""), field));
    }
  }

  // Local mode hosts the whole backend in this process (scheduler + worker
  // threads over the in-proc transport); otherwise connect to a server.
  std::unique_ptr<core::Backend> backend;
  std::shared_ptr<comm::ClientLink> link;
  if (local_workers > 0) {
    algo::register_builtin_commands();
    core::BackendConfig backend_config;
    backend_config.workers = local_workers;
    // Local sessions memoize repeat queries (a re-run of the same command
    // with identical params replays instantly); remote servers opt in via
    // their own config.
    backend_config.scheduler.result_cache.enabled = true;
    backend = std::make_unique<core::Backend>(backend_config);
    link = backend->connect();
  } else {
    try {
      link = comm::tcp_connect(host, port);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "connection failed: %s\n", e.what());
      return 1;
    }
  }

  int exit_code = 0;
  {
    viz::ExtractionSession session(link);

    auto stream = session.submit(command, params);
    viz::GeometryCollector collector;
    core::CommandStats stats;
    std::vector<util::ByteBuffer> raw_finals;
    bool finished = false;
    while (true) {
      auto packet = stream->next(std::chrono::milliseconds(600000));
      if (!packet) {
        std::fprintf(stderr, "connection lost / timeout\n");
        exit_code = 1;
        break;
      }
      if (packet->kind == viz::Packet::Kind::kProgress) {
        std::fprintf(stderr, "\rprogress: %3.0f%%", packet->progress * 100.0);
        continue;
      }
      if (packet->kind == viz::Packet::Kind::kComplete) {
        stats = packet->stats;
        finished = true;
        break;
      }
      if (packet->kind == viz::Packet::Kind::kFinal) {
        // Keep a copy for non-geometry payloads (query results).
        util::ByteBuffer copy = packet->payload;
        copy.seek(0);
        raw_finals.push_back(std::move(copy));
      }
      collector.consume(*packet);
    }
    std::fprintf(stderr, "\r");

    if (finished && !stats.success) {
      std::fprintf(stderr, "command failed: %s\n", stats.error.c_str());
      exit_code = 1;
    }

    if (finished && stats.success) {
      std::printf("%s: %.3fs total, %.3fs latency, %d workers, %llu fragments\n",
                  command.c_str(), stats.total_runtime, stats.latency, stats.workers,
                  static_cast<unsigned long long>(stats.partial_packets));

      // Query result payloads.
      for (auto& payload : raw_finals) {
        try {
          const auto kind = payload.read_string();
          if (kind == "field_range") {
            const auto field = payload.read_string();
            const auto lo = payload.read<float>();
            const auto hi = payload.read<float>();
            std::printf("%s range: [%g, %g]\n", field.c_str(), lo, hi);
          }
        } catch (const std::exception&) {
          // Geometry payload; handled by the collector below.
        }
      }

      if (collector.flat_mesh().triangle_count() > 0) {
        const auto path = out_path.empty() ? command + ".obj" : out_path;
        collector.current_mesh().write_obj(path, command);
        std::printf("mesh: %zu triangles -> %s\n", collector.flat_mesh().triangle_count(),
                    path.c_str());
      }
      if (collector.lines().line_count() > 0) {
        const auto path = out_path.empty() ? command + ".obj" : out_path;
        collector.lines().write_obj(path);
        std::printf("lines: %zu polylines -> %s\n", collector.lines().line_count(),
                    path.c_str());
      }
      if (collector.have_summary()) {
        std::printf("summary: %llu triangles, %llu active cells\n",
                    static_cast<unsigned long long>(collector.summary_triangles()),
                    static_cast<unsigned long long>(collector.summary_active_cells()));
      }
    }
    session.close();
  }
  if (backend) {
    backend->shutdown();
  }

  // Export observability artifacts after the backend quiesced, so every
  // span (including the scheduler's) has committed.
  if (!trace_out.empty()) {
    if (obs::write_chrome_trace_file(trace_out)) {
      std::printf("trace: %zu spans -> %s\n", obs::Tracer::instance().size(),
                  trace_out.c_str());
    } else {
      exit_code = 1;
    }
  }
  if (!metrics_out.empty()) {
    if (obs::write_metrics_file(metrics_out)) {
      std::printf("metrics -> %s\n", metrics_out.c_str());
    } else {
      exit_code = 1;
    }
  }
  return exit_code;
}
