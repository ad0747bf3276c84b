/// \file bench_result_cache.cpp
/// Result-memoization ablation (DESIGN.md "Result memoization"): a Zipf(1.0)
/// query mix over K distinct extraction queries against a backend with the
/// content-addressed result cache enabled. The first occurrence of each
/// query recomputes (~compute_ms of work-group occupancy); every repeat is
/// served from the scheduler's cache without forming a work group.
///
/// Emits BENCH_result_cache.json (hit/miss p50, speedup, hit fraction) and
/// exits non-zero if the shape check fails: hit-path p50 must be at least
/// 5x better than recompute p50, and at least 60% of requests must have
/// been served from the cache.
///
/// `--smoke` shrinks the query count and sleeps — the CI smoke run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/command.hpp"
#include "perf/report.hpp"
#include "viz/session.hpp"

namespace {

using namespace vira;

/// Simulates one extraction: occupies its group for "ms" milliseconds, then
/// streams a deterministic payload (so a cached replay is byte-identical to
/// what any recompute of the same query would produce).
class QueryCommand final : public core::Command {
 public:
  std::string name() const override { return "bench.query"; }

  void execute(core::CommandContext& context) override {
    const auto ms = context.params().get_int("ms", 1);
    const auto bytes = context.params().get_int("bytes", 256);
    const auto query = context.params().get_int("q", 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    if (context.is_master()) {
      util::ByteBuffer payload;
      for (int i = 0; i < bytes; ++i) {
        payload.write<std::uint8_t>(static_cast<std::uint8_t>((query * 131 + i) & 0xff));
      }
      context.send_final(std::move(payload));
    }
  }
};

struct RegisterQuery {
  RegisterQuery() {
    core::CommandRegistry::global().register_command(
        "bench.query", [] { return std::make_unique<QueryCommand>(); });
  }
};
RegisterQuery register_query;  // NOLINT

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int distinct = smoke ? 12 : 50;
  const int total = smoke ? 80 : 300;
  // The hit path costs ~2 ms of scheduler polling regardless of compute,
  // so the smoke run keeps the full compute sleep — shrinking it would
  // squeeze the very ratio the shape check asserts.
  const int compute_ms = 10;
  const auto wait_budget = std::chrono::milliseconds(60000);

  core::BackendConfig config;
  config.workers = 2;
  config.scheduler.result_cache.enabled = true;
  core::Backend backend(config);
  viz::ExtractionSession client(backend.connect());

  // Zipf(1.0) over the query ids: weight of query i is 1/(i+1). The mix is
  // fixed by seed so every run measures the same request sequence.
  std::vector<double> cumulative(static_cast<std::size_t>(distinct));
  double mass = 0.0;
  for (int i = 0; i < distinct; ++i) {
    mass += 1.0 / static_cast<double>(i + 1);
    cumulative[static_cast<std::size_t>(i)] = mass;
  }
  std::mt19937_64 rng(0x5eedcac4eULL & 0xffffffffULL);
  std::uniform_real_distribution<double> uniform(0.0, mass);

  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  for (int run = 0; run < total; ++run) {
    const auto draw = uniform(rng);
    const int query = static_cast<int>(
        std::lower_bound(cumulative.begin(), cumulative.end(), draw) - cumulative.begin());
    util::ParamList params;
    params.set_int("q", query);
    params.set_int("ms", compute_ms);
    params.set_int("bytes", 512);
    const auto start = std::chrono::steady_clock::now();
    auto stream = client.submit("bench.query", params);
    const auto stats = stream->wait(nullptr, wait_budget);
    const auto elapsed =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (!stats.success) {
      std::fprintf(stderr, "query %d failed: %s\n", query, stats.error.c_str());
      return 1;
    }
    (stats.cache_hit ? hit_ms : miss_ms).push_back(elapsed);
  }

  const double hit_p50 = percentile(hit_ms, 0.50);
  const double miss_p50 = percentile(miss_ms, 0.50);
  const double speedup = hit_p50 > 0.0 ? miss_p50 / hit_p50 : 0.0;
  const double hit_fraction =
      static_cast<double>(hit_ms.size()) / static_cast<double>(total);

  perf::print_banner("Content-addressed result cache",
                     "Zipf(1.0) query mix: recompute vs memoized replay", perf::kRuntime);
  std::printf("\n  %-10s %8s %12s %12s\n", "path", "count", "p50, ms", "p99, ms");
  std::printf("  %-10s %8zu %12.3f %12.3f\n", "recompute", miss_ms.size(), miss_p50,
              percentile(miss_ms, 0.99));
  std::printf("  %-10s %8zu %12.3f %12.3f\n", "cache-hit", hit_ms.size(), hit_p50,
              percentile(hit_ms, 0.99));
  std::printf("\n  hit fraction: %.1f%%   p50 speedup: %.1fx\n", 100.0 * hit_fraction, speedup);

  std::ofstream out("BENCH_result_cache.json");
  char body[512];
  std::snprintf(body, sizeof(body),
                "{\n  \"bench\": \"result_cache\",\n  \"distinct_queries\": %d,\n"
                "  \"requests\": %d,\n  \"compute_ms\": %d,\n  \"hits\": %zu,\n"
                "  \"misses\": %zu,\n  \"hit_fraction\": %.3f,\n  \"hit_p50_ms\": %.3f,\n"
                "  \"miss_p50_ms\": %.3f,\n  \"hit_p99_ms\": %.3f,\n  \"miss_p99_ms\": %.3f,\n"
                "  \"p50_speedup\": %.2f\n}\n",
                distinct, total, compute_ms, hit_ms.size(), miss_ms.size(), hit_fraction,
                hit_p50, miss_p50, percentile(hit_ms, 0.99), percentile(miss_ms, 0.99),
                speedup);
  out << body;
  std::printf("  wrote BENCH_result_cache.json\n");
  perf::print_expectation("hit p50 >= 5x better than recompute; >= 60% of requests hit");

  bool ok = true;
  // The tentpole claim: a repeat query skips the work group entirely, so
  // its latency is queue/link overhead, not compute_ms. 5x has wide margin
  // (the recompute path *sleeps* for compute_ms); the Zipf head guarantees
  // repeats dominate (misses are bounded by the distinct-query count).
  ok = ok && speedup >= 5.0;
  ok = ok && hit_fraction >= 0.6;
  ok = ok && static_cast<int>(hit_ms.size() + miss_ms.size()) == total;
  std::printf("\n  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
