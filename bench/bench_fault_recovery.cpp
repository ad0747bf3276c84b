/// \file bench_fault_recovery.cpp
/// Failure-model ablation (DESIGN.md "Failure model"): what does fault
/// recovery cost? Runs real isosurface extractions over a Backend whose
/// rank transport is wrapped in the FaultInjectingTransport and reports
/// completion time, work-group retries and fragment accounting for
///   * a clean baseline (no injector),
///   * the injector attached with all rates zero (overhead must be ~none),
///   * increasingly lossy transports (delays, drops, duplicates),
///   * a worker killed mid-request (death detection + re-dispatch).

#include <cstdio>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "algo/cfd_command.hpp"
#include "comm/fault_transport.hpp"
#include "core/backend.hpp"
#include "perf/report.hpp"
#include "perf/testbed.hpp"
#include "util/timer.hpp"
#include "viz/session.hpp"

namespace {

using namespace vira;

struct Outcome {
  bool completed = false;    ///< the client saw a Complete
  bool success = false;
  bool exactly_once = true;  ///< no duplicate (partition, sequence) pairs
  std::uint32_t retries = 0;
  std::size_t fragments = 0;
  std::size_t lost_workers = 0;
  double seconds = 0.0;
};

core::BackendConfig recovery_config() {
  core::BackendConfig config;
  config.workers = 4;
  // Stretch block loads so a request is long enough for mid-flight faults
  // to matter (and for death detection to land while work is in progress).
  config.read_delay_us_per_mb = 2e6;
  config.worker.heartbeat_interval = std::chrono::milliseconds(10);
  config.scheduler.death_timeout = std::chrono::milliseconds(250);
  config.scheduler.idle_grace = std::chrono::milliseconds(300);
  config.scheduler.retry_backoff = std::chrono::milliseconds(5);
  config.scheduler.max_retries = 4;
  config.scheduler.request_timeout = std::chrono::milliseconds(10000);
  return config;
}

/// Submits one streamed isosurface extraction and drains it, optionally
/// killing a worker when the first fragment arrives. With `faults` the rank
/// transport is a FaultInjectingTransport over the in-process one.
Outcome run_once(std::optional<comm::FaultInjectionConfig> faults, double iso,
                 bool kill_mid_request) {
  const auto config = recovery_config();
  std::shared_ptr<comm::FaultInjectingTransport> injector;
  if (faults) {
    injector = std::make_shared<comm::FaultInjectingTransport>(
        std::make_shared<comm::InProcTransport>(config.workers + 1), *faults);
  }
  core::Backend backend(config, injector);
  viz::ExtractionSession session(backend.connect());

  util::ParamList params;
  params.set("dataset", perf::engine_dir());
  params.set("field", "density");
  params.set_double("iso", iso);
  params.set_int("workers", 3);
  params.set_int("stream_cells", 64);
  params.set_doubles("viewpoint", {0, 0, 0});

  Outcome outcome;
  util::WallTimer timer;
  auto stream = session.submit("iso.viewer", params);
  std::set<std::pair<std::int32_t, std::uint32_t>> seen;
  bool killed = false;
  while (!outcome.completed) {
    auto packet = stream->next(std::chrono::milliseconds(60000));
    if (!packet.has_value()) {
      break;  // stalled — reported as completed=false
    }
    switch (packet->kind) {
      case viz::Packet::Kind::kPartial:
      case viz::Packet::Kind::kFinal:
        if (!seen.insert({packet->header.partition, packet->header.sequence}).second) {
          outcome.exactly_once = false;
        }
        if (kill_mid_request && !killed) {
          injector->kill_rank(3);
          killed = true;
        }
        break;
      case viz::Packet::Kind::kComplete:
        outcome.completed = true;
        outcome.success = packet->stats.success;
        outcome.retries = packet->stats.retries;
        break;
      default:
        break;
    }
  }
  outcome.seconds = timer.seconds();
  outcome.fragments = seen.size();
  outcome.lost_workers = backend.scheduler().lost_workers();
  return outcome;
}

void print_row(const char* label, const Outcome& o) {
  std::printf("  %-26s %9.3f %9u %11zu %9zu %7s %7s\n", label, o.seconds, o.retries, o.fragments,
              o.lost_workers, o.success ? "yes" : "no", o.exactly_once ? "yes" : "no");
}

}  // namespace

int main() {
  algo::register_builtin_commands();
  perf::ensure_engine();
  grid::DatasetReader reader(perf::engine_dir());
  const double iso = perf::density_iso_mid(reader);

  perf::print_banner("Fault recovery",
                     "ViewerIso under injected transport faults and a worker death");
  std::printf("\n  %-26s %9s %9s %11s %9s %7s %7s\n", "scenario", "time, s", "retries",
              "fragments", "lost", "ok", "1x");

  const auto baseline = run_once(std::nullopt, iso, false);
  print_row("clean (no injector)", baseline);

  const auto passthrough = run_once(comm::FaultInjectionConfig{}, iso, false);  // rates all zero
  print_row("injector, zero rates", passthrough);

  comm::FaultInjectionConfig delays;
  delays.seed = 21;
  delays.delay_rate = 0.25;
  delays.max_delay = std::chrono::milliseconds(3);
  const auto delayed = run_once(delays, iso, false);
  print_row("25% delayed", delayed);

  comm::FaultInjectionConfig lossy;
  lossy.seed = 22;
  lossy.drop_rate = 0.02;
  lossy.duplicate_rate = 0.05;
  lossy.delay_rate = 0.2;
  lossy.max_delay = std::chrono::milliseconds(3);
  const auto dropped = run_once(lossy, iso, false);
  print_row("2% drop + 5% dup", dropped);

  comm::FaultInjectionConfig kill_faults;
  kill_faults.seed = 23;
  const auto killed = run_once(kill_faults, iso, true);
  print_row("worker killed mid-run", killed);

  perf::print_expectation(
      "every scenario terminates successfully with exactly-once fragments and "
      "delivers every fragment of the clean run; the zero-rate injector costs "
      "~nothing; the killed worker costs one death timeout plus a re-run and "
      "reports retries > 0");

  bool ok = true;
  // Liveness, success, exactly-once and completeness everywhere: a lost
  // fragment is recovered, never reported as success with a gap.
  for (const auto* o : {&baseline, &passthrough, &delayed, &dropped, &killed}) {
    ok &= o->completed && o->success;
    ok &= o->exactly_once;
    ok &= o->fragments == baseline.fragments;
  }
  // Clean runs must not report degradation.
  ok &= baseline.retries == 0 && baseline.lost_workers == 0;
  ok &= passthrough.retries == 0 && passthrough.lost_workers == 0;
  // The kill must be detected and recovered from, not absorbed silently.
  ok &= killed.retries >= 1 && killed.lost_workers == 1;
  ok &= killed.seconds > baseline.seconds;

  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
