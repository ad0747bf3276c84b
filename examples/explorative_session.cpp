/// \file explorative_session.cpp
/// The paper's motivating workflow (Sec. 1.1): "the user continuously
/// defines parameter values to extract features, which are thereafter
/// often rejected because of unsatisfying results. Then, the parameters
/// are modified for a renewed computation."
///
/// This example replays such a trial-and-error session against a live
/// backend: a sweep of iso values, a λ2 threshold adjustment, a cut plane,
/// a jump to another time step — and prints how the DMS turns every query
/// after the first into a cache-served one ("a global instance that caches
/// this data is very helpful to reduce the I/O part of commands
/// enormously", Sec. 8).
///
/// Run:  ./explorative_session

#include <cstdio>
#include <filesystem>

#include "algo/cfd_command.hpp"
#include "core/backend.hpp"
#include "grid/synthetic.hpp"
#include "viz/assembly.hpp"
#include "viz/session.hpp"

namespace {

struct Query {
  const char* what;
  std::string command;
  vira::util::ParamList params;
};

}  // namespace

int main() {
  using namespace vira;

  const auto dataset =
      (std::filesystem::temp_directory_path() / "vira_example_session").string();
  grid::ensure_dataset(dataset, [&] {
    std::printf("generating Engine dataset...\n");
    grid::GeneratorConfig config;
    config.directory = dataset;
    config.timesteps = 3;
    config.ni = 14;
    config.nj = 11;
    config.nk = 9;
    grid::generate_engine(config);
  });

  algo::register_builtin_commands();
  core::BackendConfig config;
  config.workers = 4;
  config.read_delay_us_per_mb = 150000.0;  // emulate a remote file server
  core::Backend backend(config);
  viz::ExtractionSession session(backend.connect());

  // A real VR client cannot read the server's files: ask the backend for
  // the field range to place the iso-value slider.
  float lo = 0.0f;
  float hi = 0.0f;
  {
    util::ParamList params;
    params.set("dataset", dataset);
    params.set("field", "density");
    params.set_int("workers", 4);
    std::vector<util::ByteBuffer> fragments;
    const auto stats = session.submit("query.field_range", params)->wait(&fragments);
    if (!stats.success || fragments.empty()) {
      std::fprintf(stderr, "field range query failed\n");
      return 1;
    }
    (void)fragments[0].read_string();
    (void)fragments[0].read_string();
    lo = fragments[0].read<float>();
    hi = fragments[0].read<float>();
    std::printf("density range (served by the backend): [%.4f, %.4f]\n", lo, hi);
  }

  auto iso_query = [&](double fraction, int step) {
    util::ParamList params;
    params.set("dataset", dataset);
    params.set("field", "density");
    params.set_double("iso", lo + (hi - lo) * fraction);
    params.set_int("step", step);
    params.set_int("workers", 4);
    return params;
  };

  std::vector<Query> script;
  script.push_back({"first look: density isosurface (cold caches)", "iso.dataman",
                    iso_query(0.5, 0)});
  script.push_back({"too coarse — nudge the iso value", "iso.dataman", iso_query(0.55, 0)});
  script.push_back({"still unconvincing — nudge again", "iso.dataman", iso_query(0.45, 0)});
  {
    util::ParamList params = iso_query(0.5, 0);
    params.set_double("iso", -0.05);
    Query q{"switch feature: lambda-2 vortex regions", "vortex.dataman", params};
    q.params.set("field", "");
    script.push_back(q);
  }
  {
    util::ParamList params;
    params.set("dataset", dataset);
    params.set_int("workers", 4);
    params.set_doubles("origin", {0.0, 0.0, 0.05});
    params.set_doubles("normal", {0.0, 0.0, 1.0});
    script.push_back({"inspect a cut plane through the cylinder", "cutplane.dataman", params});
  }
  script.push_back({"advance time: same isosurface at step 1 (compulsory misses)",
                    "iso.dataman", iso_query(0.5, 1)});
  script.push_back({"and refine there once more", "iso.dataman", iso_query(0.53, 1)});

  std::printf("\n%-58s %10s %10s %8s\n", "query", "runtime", "hit rate", "misses");
  dms::DmsCounters previous{};
  for (auto& query : script) {
    auto stream = session.submit(query.command, query.params);
    const auto stats = stream->wait();
    if (!stats.success) {
      std::fprintf(stderr, "query failed: %s\n", stats.error.c_str());
      return 1;
    }
    const auto counters = backend.dms_counters();
    const auto delta_requests = counters.requests - previous.requests;
    const auto delta_hits =
        (counters.l1_hits + counters.l2_hits) - (previous.l1_hits + previous.l2_hits);
    const auto delta_misses = counters.misses - previous.misses;
    previous = counters;
    std::printf("%-58s %9.3fs %9.0f%% %8llu\n", query.what, stats.total_runtime,
                delta_requests > 0 ? 100.0 * delta_hits / delta_requests : 0.0,
                static_cast<unsigned long long>(delta_misses));
  }

  const auto counters = backend.dms_counters();
  std::printf("\nsession totals: %llu block requests, %.0f%% served from cache\n",
              static_cast<unsigned long long>(counters.requests),
              100.0 * counters.hit_rate());
  std::printf("(the first query and the time-step jump paid the I/O; everything else "
              "ran at memory speed)\n");
  return 0;
}
