#include "sim/dst_harness.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "comm/client_link.hpp"
#include "core/backend.hpp"
#include "core/command.hpp"
#include "core/protocol.hpp"
#include "core/vmb_data_source.hpp"
#include "dms/data_item.hpp"
#include "dms/data_source.hpp"
#include "util/clock.hpp"

namespace vira::sim {

namespace {

constexpr int kItemsPerFile = 4;

/// In-memory synthetic data source: item i is block i of step 0 of dataset
/// "dst", with a deterministic seed-derived size and content, grouped into
/// "files" of kItemsPerFile so the collective-read strategy has something
/// to collect. Loads burn *virtual* time proportional to the byte count.
class SimDataSource final : public dms::DataSource {
 public:
  SimDataSource(int item_count, int base_bytes, std::uint64_t seed)
      : item_count_(item_count), base_bytes_(base_bytes), seed_(seed) {}

  util::ByteBuffer load(const dms::DataItemName& name) override {
    const int block = block_of(name);
    const std::uint64_t bytes = size_of(block);
    util::clock_sleep(std::chrono::microseconds(100 + static_cast<long>(bytes / 16)));
    return content(block, bytes);
  }

  std::uint64_t item_bytes(const dms::DataItemName& name) const override {
    return size_of(block_of(name));
  }

  std::uint64_t file_bytes(const dms::DataItemName& name) const override {
    const int first = (block_of(name) / kItemsPerFile) * kItemsPerFile;
    std::uint64_t total = 0;
    for (int b = first; b < first + kItemsPerFile && b < item_count_; ++b) {
      total += size_of(b);
    }
    return total;
  }

  std::string file_key(const dms::DataItemName& name) const override {
    return "dst/f" + std::to_string(block_of(name) / kItemsPerFile);
  }

  /// Reference content for the replica-consistency oracle: what any replica
  /// of `block` must contain, regardless of which rank served it.
  util::ByteBuffer expected(int block) const { return content(block, size_of(block)); }

  std::vector<std::pair<dms::DataItemName, util::ByteBuffer>> load_file(
      const dms::DataItemName& name) override {
    const int first = (block_of(name) / kItemsPerFile) * kItemsPerFile;
    std::vector<std::pair<dms::DataItemName, util::ByteBuffer>> items;
    std::uint64_t total = 0;
    for (int b = first; b < first + kItemsPerFile && b < item_count_; ++b) {
      const std::uint64_t bytes = size_of(b);
      total += bytes;
      items.emplace_back(dms::block_item("dst", 0, b), content(b, bytes));
    }
    util::clock_sleep(std::chrono::microseconds(150 + static_cast<long>(total / 16)));
    return items;
  }

 private:
  int block_of(const dms::DataItemName& name) const {
    const int block = static_cast<int>(name.params.get_int("block", -1));
    if (name.source != "dst" || block < 0 || block >= item_count_) {
      throw std::out_of_range("SimDataSource: unknown item " + name.canonical());
    }
    return block;
  }

  std::uint64_t size_of(int block) const {
    // Deterministic per-item size, varied around the base so eviction and
    // byte accounting see unequal blobs.
    const std::uint64_t base = static_cast<std::uint64_t>(base_bytes_);
    return base / 2 + (static_cast<std::uint64_t>(block) * 2654435761ull) % base;
  }

  util::ByteBuffer content(int block, std::uint64_t bytes) const {
    util::Rng rng(seed_ ^ (static_cast<std::uint64_t>(block) * 0x9e3779b97f4a7c15ull));
    util::ByteBuffer buffer;
    std::uint64_t word = 0;
    for (std::uint64_t i = 0; i < bytes; ++i) {
      if (i % 8 == 0) {
        word = rng.next_u64();
      }
      buffer.write<std::uint8_t>(static_cast<std::uint8_t>(word >> ((i % 8) * 8)));
    }
    return buffer;
  }

  int item_count_;
  int base_bytes_;
  std::uint64_t seed_;
};

/// The scenario workload command: streams `partials` fragments, touching
/// the DMS and group collectives in between, then gathers at the master.
/// Pure product-path plumbing — the parameters decide which scheduler /
/// worker / DMS features a scenario exercises.
class DstWorkCommand final : public core::Command {
 public:
  std::string name() const override { return "dst.work"; }

  void execute(core::CommandContext& ctx) override {
    const auto& p = ctx.params();
    const int partials = static_cast<int>(p.get_int("partials", 1));
    const int payload = static_cast<int>(p.get_int("payload", 64));
    const int dms_items = static_cast<int>(p.get_int("dms_items", 0));
    const int first_item = static_cast<int>(p.get_int("first_item", 0));
    const int item_count = static_cast<int>(p.get_int("item_count", 1));
    const bool barrier = p.get_bool("barrier", false);
    const int fail_rank = static_cast<int>(p.get_int("fail_rank", -1));
    const int item_sleep_us = static_cast<int>(p.get_int("item_sleep_us", 0));

    const int window = static_cast<int>(p.get_int("pipeline_window", 0));

    for (int i = 0; i < partials; ++i) {
      ctx.check_abort();
      if (dms_items > 0) {
        util::ScopedPhase read_phase(ctx.phases(), core::kPhaseRead);
        util::TaskPool* pool = ctx.task_pool();
        if (pool != nullptr && window > 0) {
          // Pipelined path: a bounded window of async loads in flight; if
          // the scheduler abandons the attempt mid-window, loads that have
          // not started yet are cancelled (their accounting settles via the
          // tasks' captured tokens — the async oracle checks the balance).
          std::deque<util::Future<dms::Blob>> inflight;
          struct CancelGuard {
            std::deque<util::Future<dms::Blob>>* queue;
            ~CancelGuard() {
              for (auto& future : *queue) {
                future.cancel();
              }
            }
          } guard{&inflight};
          int issued = 0;
          int consumed = 0;
          while (consumed < dms_items) {
            ctx.check_abort();
            while (issued < dms_items && inflight.size() < static_cast<std::size_t>(window)) {
              const int index =
                  (first_item + i * dms_items + issued + ctx.group_rank() * 7) % item_count;
              inflight.push_back(
                  ctx.proxy().request_async(dms::block_item("dst", 0, index), *pool));
              ++issued;
            }
            while (!inflight.front().wait_for(std::chrono::milliseconds(1))) {
              ctx.check_abort();
            }
            (void)inflight.front().get();
            inflight.pop_front();
            ++consumed;
          }
        } else {
          for (int j = 0; j < dms_items; ++j) {
            const int index =
                (first_item + i * dms_items + j + ctx.group_rank() * 7) % item_count;
            (void)ctx.proxy().request(dms::block_item("dst", 0, index));
          }
        }
      }
      if (item_sleep_us > 0) {
        util::ScopedPhase compute_phase(ctx.phases(), core::kPhaseCompute);
        util::clock_sleep(std::chrono::microseconds(item_sleep_us));
      }
      if (barrier) {
        ctx.group_barrier();
      }
      util::ByteBuffer fragment;
      for (int k = 0; k < payload; ++k) {
        fragment.write<std::uint8_t>(static_cast<std::uint8_t>((i * 31 + k) & 0xff));
      }
      ctx.stream_partial(std::move(fragment));
      ctx.report_progress(static_cast<double>(i + 1) / static_cast<double>(partials));
    }

    if (fail_rank == ctx.group_rank()) {
      throw std::runtime_error("dst.work: injected failure on partition " +
                               std::to_string(fail_rank));
    }
    if (fail_rank >= 0) {
      // A sibling partition throws before the collective; skipping the
      // gather keeps the failure path deterministic instead of stranding
      // the survivors on a member that will never contribute.
      return;
    }
    util::ByteBuffer mine;
    mine.write<std::int32_t>(ctx.group_rank());
    auto parts = ctx.gather_at_master(std::move(mine));
    if (ctx.is_master()) {
      util::ByteBuffer merged;
      merged.write<std::uint64_t>(parts.size());
      ctx.send_final(std::move(merged));
    }
  }
};

struct RegisterDstWork {
  RegisterDstWork() {
    core::CommandRegistry::global().register_command(
        "dst.work", [] { return std::make_unique<DstWorkCommand>(); });
  }
};
RegisterDstWork register_dst_work;  // NOLINT

/// The scenario's message faults; its kills are driver events.
comm::FaultInjectionConfig fault_config(const Scenario& s) {
  comm::FaultInjectionConfig config;
  config.seed = s.seed ^ 0xd57f417a5eedull;
  config.drop_rate = s.drop_rate;
  config.duplicate_rate = s.duplicate_rate;
  config.delay_rate = s.delay_rate;
  config.max_delay = std::chrono::milliseconds(s.max_delay_ms);
  return config;
}

/// The scenario's DMS, scheduler and worker knobs as a Backend
/// configuration (the DMS talks to the data server by direct calls).
core::BackendConfig backend_config(const Scenario& s) {
  core::BackendConfig config;
  config.workers = s.workers;
  config.l1_cache_bytes = s.l1_bytes;
  config.cache_policy = s.policy;
  if (s.l2) {
    config.l2_directory = "<auto>";
    config.l2_cache_bytes = s.l2_bytes;
  }
  config.async_prefetch = s.async_prefetch;
  config.dms_shards = s.shards;
  config.dms_replication = s.repl;

  config.worker.heartbeat_interval = std::chrono::milliseconds(s.heartbeat_ms);
  config.worker.pipeline_threads = s.pipeline_threads;

  core::SchedulerConfig& sconfig = config.scheduler;
  sconfig.death_timeout = std::chrono::milliseconds(s.death_ms);
  sconfig.idle_grace = std::chrono::milliseconds(s.idle_grace_ms);
  sconfig.max_retries = s.max_retries;
  sconfig.retry_backoff = std::chrono::milliseconds(s.backoff_ms);
  sconfig.request_timeout = std::chrono::milliseconds(s.request_timeout_ms);
  sconfig.fragment_dedup = s.fragment_dedup;
  sconfig.policy = s.qos_fair ? core::SchedPolicy::kFairShare : core::SchedPolicy::kFifo;
  sconfig.max_queue_per_client = static_cast<std::size_t>(std::max(0, s.max_queue));
  sconfig.max_head_bypass = s.head_bypass;
  if (s.result_cache_kb > 0) {
    sconfig.result_cache.enabled = true;
    sconfig.result_cache.memory_bytes = static_cast<std::uint64_t>(s.result_cache_kb) * 1024;
    // Reuse the scenario's DMS policy so all replacement classes get
    // exercised on the result-cache side too.
    sconfig.result_cache.policy = s.policy;
  }
  return config;
}

/// Client-side bookkeeping for the oracles.
struct RequestState {
  bool submitted = false;
  bool cancel_sent = false;
  bool complete = false;
  bool rejected = false;
  bool success = false;
  bool degraded_seen = false;
  bool error_seen = false;
  std::uint32_t retries = 0;
  std::set<std::pair<std::int32_t, std::uint32_t>> fragments;  ///< (partition, sequence)
  int partials = 0;  ///< distinct kTagPartial fragments accepted
  int finals = 0;    ///< distinct kTagFinal fragments accepted
  bool duplicate_reported = false;
  /// Result-cache oracle state: the dataset version current at submission,
  /// whether the completion was served from the cache, and the delivered
  /// fragment stream as an ordered list of content hashes (partition,
  /// sequence, finality, body bytes — request id excluded, it legitimately
  /// differs between an original and its replay).
  std::uint64_t version_at_submit = 1;
  bool cache_hit = false;
  std::vector<std::uint64_t> frag_seq;
};

/// Content hash of one delivered fragment (FNV-1a over the identity the
/// replay-identical oracle compares: everything except the request id).
std::uint64_t fragment_hash(const core::FragmentHeader& header, bool final_fragment,
                            const util::ByteBuffer& payload) {
  std::uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  mix(&header.partition, sizeof(header.partition));
  mix(&header.sequence, sizeof(header.sequence));
  const std::uint8_t final_flag = final_fragment ? 1 : 0;
  mix(&final_flag, sizeof(final_flag));
  const std::size_t body_at = payload.read_pos();
  mix(payload.data() + body_at, payload.size() - body_at);
  return hash;
}

/// Workload identity of a DstRequest: two requests with the same signature
/// submit byte-identical (command, params) pairs, so a cache hit on one may
/// only ever replay a result computed for the other.
std::string workload_signature(const Scenario& scenario, const DstRequest& spec) {
  std::ostringstream out;
  out << spec.width << ':' << spec.partials << ':' << spec.payload << ':' << spec.dms_items
      << ':' << spec.first_item << ':' << (spec.barrier ? 1 : 0) << ':' << spec.fail_rank << ':'
      << spec.item_sleep_us << ':' << scenario.item_count << ':' << scenario.pipeline_window;
  return out.str();
}

}  // namespace

std::string Scenario::to_string() const {
  std::ostringstream out;
  out << "seed=" << seed << ";workers=" << workers << ";drop=" << drop_rate
      << ";dup=" << duplicate_rate << ";delay=" << delay_rate << ";maxdelay=" << max_delay_ms
      << ";policy=" << policy << ";l1=" << l1_bytes << ";l2=" << (l2 ? l2_bytes : 0)
      << ";pf=" << prefetcher << ";apf=" << (async_prefetch ? 1 : 0) << ";items=" << item_count
      << ";ibytes=" << item_bytes << ";hb=" << heartbeat_ms << ";death=" << death_ms
      << ";grace=" << idle_grace_ms << ";retries=" << max_retries << ";backoff=" << backoff_ms
      << ";timeout=" << request_timeout_ms << ";dedup=" << (fragment_dedup ? 1 : 0)
      << ";cl=" << clients << ";qos=" << (qos_fair ? 1 : 0) << ";maxq=" << max_queue
      << ";bypass=" << head_bypass
      << ";pt=" << pipeline_threads << ";pw=" << pipeline_window
      << ";rc=" << result_cache_kb
      << ";shards=" << shards << ";repl=" << repl
      << ";stall=" << stall_budget_ms;
  out << ";bumps=";
  for (std::size_t i = 0; i < bumps.size(); ++i) {
    out << (i ? "," : "") << bumps[i];
  }
  out << ";kills=";
  for (std::size_t i = 0; i < kills.size(); ++i) {
    out << (i ? "," : "") << kills[i].first << ":" << kills[i].second;
  }
  out << ";reqs=";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const DstRequest& r = requests[i];
    out << (i ? "," : "") << r.width << ":" << r.partials << ":" << r.payload << ":"
        << r.dms_items << ":" << r.first_item << ":" << (r.barrier ? 1 : 0) << ":"
        << r.fail_rank << ":" << r.submit_at_ms << ":" << r.item_sleep_us << ":"
        << r.client << ":" << r.cancel_at_ms;
  }
  return out.str();
}

std::optional<Scenario> Scenario::parse(const std::string& text) {
  Scenario s;
  s.requests.clear();
  std::istringstream in(text);
  std::string field;
  try {
    while (std::getline(in, field, ';')) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) {
        return std::nullopt;
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "seed") {
        s.seed = std::stoull(value);
      } else if (key == "workers") {
        s.workers = std::stoi(value);
      } else if (key == "drop") {
        s.drop_rate = std::stod(value);
      } else if (key == "dup") {
        s.duplicate_rate = std::stod(value);
      } else if (key == "delay") {
        s.delay_rate = std::stod(value);
      } else if (key == "maxdelay") {
        s.max_delay_ms = std::stoi(value);
      } else if (key == "policy") {
        s.policy = value;
      } else if (key == "l1") {
        s.l1_bytes = std::stoull(value);
      } else if (key == "l2") {
        s.l2_bytes = std::stoull(value);
        s.l2 = s.l2_bytes > 0;
      } else if (key == "pf") {
        s.prefetcher = value;
      } else if (key == "apf") {
        s.async_prefetch = value == "1";
      } else if (key == "items") {
        s.item_count = std::stoi(value);
      } else if (key == "ibytes") {
        s.item_bytes = std::stoi(value);
      } else if (key == "hb") {
        s.heartbeat_ms = std::stoi(value);
      } else if (key == "death") {
        s.death_ms = std::stoi(value);
      } else if (key == "grace") {
        s.idle_grace_ms = std::stoi(value);
      } else if (key == "retries") {
        s.max_retries = std::stoi(value);
      } else if (key == "backoff") {
        s.backoff_ms = std::stoi(value);
      } else if (key == "timeout") {
        s.request_timeout_ms = std::stoi(value);
      } else if (key == "dedup") {
        s.fragment_dedup = value == "1";
      } else if (key == "cl") {
        s.clients = std::stoi(value);
      } else if (key == "qos") {
        s.qos_fair = value == "1";
      } else if (key == "maxq") {
        s.max_queue = std::stoi(value);
      } else if (key == "bypass") {
        s.head_bypass = std::stoi(value);
      } else if (key == "pt") {
        s.pipeline_threads = std::stoi(value);
      } else if (key == "pw") {
        s.pipeline_window = std::stoi(value);
      } else if (key == "rc") {
        s.result_cache_kb = std::stoi(value);
      } else if (key == "shards") {
        s.shards = std::stoi(value);
      } else if (key == "repl") {
        s.repl = std::stoi(value);
      } else if (key == "bumps") {
        std::istringstream list(value);
        std::string entry;
        while (std::getline(list, entry, ',')) {
          s.bumps.push_back(std::stoi(entry));
        }
      } else if (key == "stall") {
        s.stall_budget_ms = std::stoi(value);
      } else if (key == "kills") {
        std::istringstream list(value);
        std::string entry;
        while (std::getline(list, entry, ',')) {
          const auto colon = entry.find(':');
          if (colon == std::string::npos) {
            return std::nullopt;
          }
          s.kills.emplace_back(std::stoi(entry.substr(0, colon)),
                               std::stoi(entry.substr(colon + 1)));
        }
      } else if (key == "reqs") {
        std::istringstream list(value);
        std::string entry;
        while (std::getline(list, entry, ',')) {
          std::istringstream parts(entry);
          std::string part;
          std::vector<int> numbers;
          while (std::getline(parts, part, ':')) {
            numbers.push_back(std::stoi(part));
          }
          // 9 numbers = the pre-QoS layout; 10/11 append client and
          // cancel_at_ms (older replay strings stay parseable).
          if (numbers.size() < 9 || numbers.size() > 11) {
            return std::nullopt;
          }
          DstRequest r;
          r.width = numbers[0];
          r.partials = numbers[1];
          r.payload = numbers[2];
          r.dms_items = numbers[3];
          r.first_item = numbers[4];
          r.barrier = numbers[5] != 0;
          r.fail_rank = numbers[6];
          r.submit_at_ms = numbers[7];
          r.item_sleep_us = numbers[8];
          if (numbers.size() > 9) {
            r.client = numbers[9];
          }
          if (numbers.size() > 10) {
            r.cancel_at_ms = numbers[10];
          }
          s.requests.push_back(r);
        }
      } else {
        return std::nullopt;
      }
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (s.workers < 1 || s.requests.empty()) {
    return std::nullopt;
  }
  return s;
}

ScenarioResult run_scenario(const Scenario& scenario) {
  if (scenario.workers < 1 || scenario.requests.empty()) {
    throw std::invalid_argument("run_scenario: need >= 1 worker and >= 1 request");
  }
  ScenarioResult result;
  auto clock = std::make_shared<VirtualClock>();

  // Real-time watchdog, outside the token machine: a scenario that stops
  // consuming *real* CPU progress for this long has wedged the machine (a
  // bug in the DST conversion, e.g. a product path blocking on a real
  // primitive) — dump the participant states so the wedge is debuggable.
  // It only reads the clock's progress counters, so determinism is
  // unaffected, and the end of the scenario wakes it at once.
  std::mutex watchdog_mutex;
  std::condition_variable watchdog_cv;
  bool scenario_done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(watchdog_mutex);
    auto next_check = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    std::int64_t last_virtual = -1;
    std::uint64_t last_switches = 0;
    while (!watchdog_cv.wait_until(lock, next_check, [&] { return scenario_done; })) {
      const std::int64_t virtual_now = clock->now_ns();
      const std::uint64_t switches = clock->switches();
      if (virtual_now == last_virtual && switches == last_switches) {
        std::cerr << "vira-dst watchdog: machine wedged (no progress in 20s real time)\n";
        clock->dump_state(std::cerr);
        std::abort();
      }
      last_virtual = virtual_now;
      last_switches = switches;
      next_check = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    }
  });

  util::set_global_clock(clock.get());
  clock->register_driver();
  {
    // The shipped stack over the shipped fault decorator (one rank for the
    // scheduler and one per worker) and a synthetic source. Its threads are
    // clock participants; none runs before the driver first yields, so the
    // set-up below is part of the trajectory.
    const auto transport = std::make_shared<comm::FaultInjectingTransport>(
        std::make_shared<comm::InProcTransport>(scenario.workers + 1), fault_config(scenario));
    const auto source =
        std::make_shared<SimDataSource>(scenario.item_count, scenario.item_bytes, scenario.seed);
    core::Backend backend(backend_config(scenario), transport, source);
    std::vector<dms::DataProxy*> proxies;
    for (int index = 0; index < scenario.workers; ++index) {
      dms::DataProxy& proxy = backend.worker_proxy(index);
      if (scenario.prefetcher != "null") {
        proxy.configure_prefetcher(
            scenario.prefetcher,
            core::make_block_successor(proxy.resolver(), scenario.item_count,
                                       /*step_count=*/1, /*wrap_steps=*/false));
      }
      proxies.push_back(&proxy);
    }
    std::vector<std::shared_ptr<comm::ClientLink>> clients;
    for (int index = 0; index < std::max(1, scenario.clients); ++index) {
      clients.push_back(backend.connect());
    }
    core::Scheduler& scheduler = backend.scheduler();

    std::map<std::uint64_t, RequestState> states;
    for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
      states[static_cast<std::uint64_t>(i + 1)];
    }
    const std::int64_t start_ns = clock->now_ns();
    const std::int64_t stall_ns =
        static_cast<std::int64_t>(scenario.stall_budget_ms) * 1000000;
    std::int64_t last_progress = start_ns;
    auto note_violation = [&result](const std::string& text) {
      result.violations.push_back(text);
    };

    auto handle = [&](comm::Message& msg) {
      switch (msg.tag) {
        case core::kTagPartial:
        case core::kTagFinal: {
          auto header = core::FragmentHeader::deserialize(msg.payload);
          auto& state = states[header.request_id];
          ++result.fragments;
          if (state.fragments.emplace(header.partition, header.sequence).second) {
            // First delivery only: the replay-identical oracle compares
            // streams as the client accepts them, and a transport duplicate
            // is already its own (exactly-once) violation.
            state.frag_seq.push_back(
                fragment_hash(header, msg.tag == core::kTagFinal, msg.payload));
            ++(msg.tag == core::kTagFinal ? state.finals : state.partials);
          } else if (!state.duplicate_reported) {
            state.duplicate_reported = true;
            note_violation("exactly-once: request " + std::to_string(header.request_id) +
                           " fragment (partition " + std::to_string(header.partition) +
                           ", sequence " + std::to_string(header.sequence) +
                           ") delivered twice");
          }
          break;
        }
        case core::kTagProgress:
          break;
        case core::kTagDegraded: {
          const auto id = msg.payload.read<std::uint64_t>();
          states[id].degraded_seen = true;
          break;
        }
        case core::kTagError: {
          const auto id = msg.payload.read<std::uint64_t>();
          states[id].error_seen = true;
          break;
        }
        case core::kTagRejected: {
          const auto id = msg.payload.read<std::uint64_t>();
          auto& state = states[id];
          if (state.rejected || state.complete) {
            note_violation("terminal: request " + std::to_string(id) +
                           " rejected after a terminal answer");
            break;
          }
          state.rejected = true;
          ++result.rejected;
          auto& terminal = result.terminals[id];
          terminal.at_ns = clock->now_ns() - start_ns;
          terminal.rejected = true;
          break;
        }
        case core::kTagComplete: {
          auto stats = core::CommandStats::deserialize(msg.payload);
          auto& state = states[stats.request_id];
          if (state.complete || state.rejected) {
            note_violation("terminal: request " + std::to_string(stats.request_id) +
                           " completed twice (or after a rejection)");
            break;
          }
          state.complete = true;
          state.success = stats.success;
          state.retries = stats.retries;
          state.cache_hit = stats.cache_hit;
          auto& terminal = result.terminals[stats.request_id];
          terminal.at_ns = clock->now_ns() - start_ns;
          terminal.workers = stats.workers;
          terminal.requested_workers = stats.requested_workers;
          terminal.success = stats.success;
          terminal.cache_hit = stats.cache_hit;
          terminal.data_version = stats.data_version;
          ++result.completed;
          if (stats.cache_hit) {
            ++result.cache_hits;
            // A hit bypasses the work group entirely: it can only replay a
            // fully-successful capture, so it must itself be a clean,
            // retry-free success.
            if (!stats.success || stats.retries > 0 || state.degraded_seen) {
              note_violation("result-cache: request " + std::to_string(stats.request_id) +
                             " was a cache hit but not a clean success (success=" +
                             std::to_string(stats.success) +
                             " retries=" + std::to_string(stats.retries) + ")");
            }
          }
          // No-stale: whatever served this request (cache or recompute) must
          // have been keyed at a dataset version no older than the one
          // current when the client submitted it.
          if (scenario.result_cache_kb > 0 && stats.data_version != 0 &&
              stats.data_version < state.version_at_submit) {
            note_violation("result-cache: request " + std::to_string(stats.request_id) +
                           " served at dataset version " + std::to_string(stats.data_version) +
                           " < version " + std::to_string(state.version_at_submit) +
                           " current at submission (stale geometry)");
          }
          if (stats.success) {
            ++result.succeeded;
          } else {
            ++result.failed;
          }
          if (stats.retries > 0) {
            ++result.degraded;
            if (!state.degraded_seen) {
              note_violation("terminal: request " + std::to_string(stats.request_id) +
                             " retried " + std::to_string(stats.retries) +
                             "x without a kTagDegraded notice");
            }
          }
          if (!stats.success && !state.error_seen) {
            note_violation("terminal: request " + std::to_string(stats.request_id) +
                           " failed without a kTagError notice");
          }
          break;
        }
        default:
          note_violation("client: unexpected tag " + std::to_string(msg.tag));
      }
    };

    // Route each request through its client's link (clamped so hand-built
    // scenarios with out-of-range client indices still run).
    const auto client_of = [&](const DstRequest& spec) {
      const int bound = static_cast<int>(clients.size());
      return static_cast<std::size_t>(std::clamp(spec.client, 0, bound - 1));
    };

    const int total = static_cast<int>(scenario.requests.size());
    // Dataset-version schedule: the driver mirrors the version counter the
    // scheduler reads (NameService starts at 1, each bump adds 1) so the
    // no-stale oracle can stamp every submission with the version that was
    // current when it left the client.
    std::vector<bool> bump_done(scenario.bumps.size(), false);
    std::uint64_t driver_version = 1;
    bool stalled = false;
    // Rank kills fire from this loop too, each at its virtual instant.
    // Post-kill fallback accounting: snapshot the disk-fallback total once
    // the last scheduled kill has fired; the delta to the end of the run is
    // what replica coverage failed to absorb (peer_fallback_disk_after_kill).
    std::vector<bool> kill_done(scenario.kills.size(), false);
    std::size_t kills_fired = 0;
    std::uint64_t fallback_at_kill = 0;
    while (result.completed + result.rejected < total) {
      const std::int64_t now = clock->now_ns();
      for (std::size_t b = 0; b < scenario.bumps.size(); ++b) {
        if (!bump_done[b] &&
            now - start_ns >= static_cast<std::int64_t>(scenario.bumps[b]) * 1000000) {
          backend.data_server().names().bump_data_version();
          ++driver_version;
          bump_done[b] = true;
          last_progress = now;
        }
      }
      for (std::size_t k = 0; k < scenario.kills.size(); ++k) {
        if (!kill_done[k] &&
            now - start_ns >= static_cast<std::int64_t>(scenario.kills[k].first) * 1000000) {
          transport->kill_rank(scenario.kills[k].second);
          kill_done[k] = true;
          if (++kills_fired == scenario.kills.size()) {
            fallback_at_kill = backend.dms_counters().peer_fallback_disk;
          }
        }
      }
      for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
        const DstRequest& spec = scenario.requests[i];
        auto& state = states[static_cast<std::uint64_t>(i + 1)];
        // A scheduled cancel fires once the request is submitted and its
        // virtual due time passed (terminal answer still required: the
        // cancelled request completes with an error instead of hanging).
        if (state.submitted && !state.cancel_sent && spec.cancel_at_ms >= 0 &&
            !state.complete && !state.rejected &&
            now - start_ns >= static_cast<std::int64_t>(spec.cancel_at_ms) * 1000000) {
          comm::Message cancel;
          cancel.source = 0;
          cancel.tag = core::kTagCancel;
          cancel.payload.write<std::uint64_t>(static_cast<std::uint64_t>(i + 1));
          clients[client_of(spec)]->send(std::move(cancel));
          state.cancel_sent = true;
          last_progress = now;
        }
        if (state.submitted ||
            now - start_ns < static_cast<std::int64_t>(spec.submit_at_ms) * 1000000) {
          continue;
        }
        core::CommandRequest request;
        request.request_id = static_cast<std::uint64_t>(i + 1);
        request.command = "dst.work";
        request.params.set_int("partials", spec.partials);
        request.params.set_int("payload", spec.payload);
        request.params.set_int("dms_items", spec.dms_items);
        request.params.set_int("first_item", spec.first_item);
        request.params.set_int("item_count", scenario.item_count);
        request.params.set_bool("barrier", spec.barrier);
        request.params.set_int("fail_rank", spec.fail_rank);
        request.params.set_int("item_sleep_us", spec.item_sleep_us);
        if (scenario.pipeline_window > 0) {
          request.params.set_int("pipeline_window", scenario.pipeline_window);
        }
        if (spec.width > 0) {
          request.params.set_int("workers", spec.width);
        }
        comm::Message msg;
        msg.source = 0;
        msg.tag = core::kTagSubmit;
        request.serialize(msg.payload);
        clients[client_of(spec)]->send(std::move(msg));
        state.submitted = true;
        state.version_at_submit = driver_version;
        last_progress = now;
      }
      for (auto& client : clients) {
        while (auto msg = client->recv(std::chrono::milliseconds(0))) {
          handle(*msg);
          last_progress = clock->now_ns();
        }
      }
      if (clock->now_ns() - last_progress > stall_ns) {
        note_violation("stall: no client-visible progress for " +
                       std::to_string(scenario.stall_budget_ms) + " virtual ms (" +
                       std::to_string(result.completed) + "/" + std::to_string(total) +
                       " requests complete)");
        stalled = true;
        break;
      }
      util::clock_sleep(std::chrono::milliseconds(1));
    }

    // Worker conservation: with every request terminal, the pool must
    // settle — every rank free or declared lost, no group or queue entry
    // leaked. Reads are token-serialized (the scheduler thread is parked).
    if (!stalled) {
      const std::int64_t settle_deadline = clock->now_ns() + stall_ns;
      auto settled = [&] {
        return scheduler.free_workers() + scheduler.lost_workers() ==
                   static_cast<std::size_t>(scenario.workers) &&
               scheduler.active_groups() == 0 && scheduler.queued_requests() == 0;
      };
      while (!settled() && clock->now_ns() < settle_deadline) {
        util::clock_sleep(std::chrono::milliseconds(5));
      }
      if (!settled()) {
        note_violation("conservation: pool did not settle (free=" +
                       std::to_string(scheduler.free_workers()) +
                       " lost=" + std::to_string(scheduler.lost_workers()) + " of " +
                       std::to_string(scenario.workers) +
                       ", groups=" + std::to_string(scheduler.active_groups()) +
                       ", queued=" + std::to_string(scheduler.queued_requests()) + ")");
      }
    }

    // Completeness: a successful request delivered every member's partials,
    // plus the master's final unless a fail_rank skipped the gather. Fault
    // freedom: without drops and kills nothing may look lost, so no attempt
    // is retried and no rank declared dead.
    for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
      const DstRequest& spec = scenario.requests[i];
      const auto id = static_cast<std::uint64_t>(i + 1);
      const RequestState& state = states[id];
      if (!state.complete || !state.success) {
        continue;
      }
      const int partials = result.terminals[id].workers * spec.partials;
      const int finals = spec.fail_rank < 0 ? 1 : 0;
      if (state.partials != partials || state.finals != finals) {
        note_violation("completeness: request " + std::to_string(id) + " succeeded with " +
                       std::to_string(state.partials) + "/" + std::to_string(partials) +
                       " partials and " + std::to_string(state.finals) + "/" +
                       std::to_string(finals) + " finals");
      }
    }
    if (scenario.drop_rate == 0.0 && scenario.kills.empty() &&
        (scheduler.total_retries() > 0 || scheduler.lost_workers() > 0)) {
      note_violation("fault-free: " + std::to_string(scheduler.total_retries()) +
                     " retries and " + std::to_string(scheduler.lost_workers()) +
                     " ranks declared dead without drops or kills");
    }

    // QoS oracles. No starvation: the aging bound must really bound how
    // often a ready head was bypassed (kFairShare; trivially 0 under
    // kFifo). Rejection integrity: an admission-refused request must never
    // have produced data.
    result.backfills = scheduler.total_backfills();
    result.max_head_bypass_seen = scheduler.max_head_bypass_observed();
    if (result.max_head_bypass_seen > scenario.head_bypass) {
      note_violation("starvation: a queue head was bypassed " +
                     std::to_string(result.max_head_bypass_seen) +
                     " times (aging bound " + std::to_string(scenario.head_bypass) + ")");
    }
    for (const auto& [id, state] : states) {
      if (state.rejected && !state.fragments.empty()) {
        note_violation("rejection: request " + std::to_string(id) +
                       " was rejected but delivered " +
                       std::to_string(state.fragments.size()) + " fragments");
      }
    }

    // Replay-identical: every cache-hit stream must be byte-identical (as
    // hashed per accepted fragment, in delivery order) to the stream of
    // some genuinely-computed request with the same workload signature.
    // The cache may only ever replay what a work group really produced.
    if (scenario.result_cache_kb > 0 && result.cache_hits > 0) {
      std::map<std::string, std::vector<const std::vector<std::uint64_t>*>> originals;
      for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
        const auto& state = states[static_cast<std::uint64_t>(i + 1)];
        if (state.complete && state.success && !state.cache_hit) {
          originals[workload_signature(scenario, scenario.requests[i])].push_back(
              &state.frag_seq);
        }
      }
      for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
        const auto& state = states[static_cast<std::uint64_t>(i + 1)];
        if (!state.cache_hit) {
          continue;
        }
        const auto it = originals.find(workload_signature(scenario, scenario.requests[i]));
        bool matched = false;
        if (it != originals.end()) {
          for (const auto* original : it->second) {
            if (*original == state.frag_seq) {
              matched = true;
              break;
            }
          }
        }
        if (!matched) {
          note_violation("result-cache: request " + std::to_string(i + 1) +
                         " was a cache hit but its fragment stream matches no computed "
                         "original with the same workload");
        }
      }
    }

    // Cache accounting, after draining the prefetch pipelines in virtual
    // time so no load is mid-flight.
    for (auto* proxy : proxies) {
      proxy->quiesce();
    }

    // Peer-transfer aggregates (pushes and promotions only when sharded).
    const auto counters = backend.dms_counters();
    result.peer_fetches = counters.peer_fetches;
    result.peer_pushes = counters.peer_pushes;
    result.replica_promotions = counters.replica_promotions;
    result.peer_fallback_disk = counters.peer_fallback_disk;
    result.stale_replica_rejects = counters.stale_replica_rejects;
    if (kills_fired > 0 && kills_fired == scenario.kills.size()) {
      result.peer_fallback_disk_after_kill = result.peer_fallback_disk - fallback_at_kill;
    }

    // Replica consistency (oracle 9): whatever path put a block into a
    // proxy's L1 — own disk load, peer transfer from any holder or replica,
    // unsolicited push — its bytes must equal the synthetic source's
    // content for that id. A corrupting serialization bug or a wrong-item
    // reply shows up here no matter which rank answered.
    for (auto* proxy : proxies) {
      const std::string tag = "replica(proxy " + std::to_string(proxy->id()) + "): ";
      const auto& l1 = proxy->cache().l1();
      for (const dms::ItemId id : l1.resident()) {
        const dms::Blob blob = l1.peek(id);
        if (!blob) {
          continue;  // the byte-accounting oracle already flags this
        }
        const auto name = backend.data_server().names().lookup(id);
        if (!name) {
          note_violation(tag + "resident item " + std::to_string(id) +
                         " has no name-service entry");
          continue;
        }
        const int block = static_cast<int>(name->params.get_int("block", -1));
        const util::ByteBuffer want = source->expected(block);
        if (!(*blob == want)) {
          note_violation(tag + "item " + std::to_string(id) + " (block " +
                         std::to_string(block) + ") bytes diverge from the source: " +
                         std::to_string(blob->size()) + " vs " + std::to_string(want.size()) +
                         " bytes");
        }
      }
    }

    // Async (pipelined-executor) accounting. Loads still running when an
    // attempt was abandoned finish on the pool in virtual time — wait for
    // the books to balance, then check that every submission settled and
    // that the bounded window really bounded outstanding bytes. At most
    // `pipeline_window` submissions are outstanding per attempt plus up to
    // `pipeline_threads` running tasks surviving an abort (only queued
    // loads are cancellable); items are at most 1.5 × item_bytes
    // (SimDataSource::size_of).
    if (scenario.pipeline_threads > 0 && scenario.pipeline_window > 0) {
      const std::int64_t drain_deadline = clock->now_ns() + stall_ns;
      auto async_drained = [&proxies] {
        for (auto* proxy : proxies) {
          const auto counters = proxy->stats().snapshot();
          if (counters.async_submitted != counters.async_settled) {
            return false;
          }
        }
        return true;
      };
      while (!async_drained() && clock->now_ns() < drain_deadline) {
        util::clock_sleep(std::chrono::milliseconds(2));
      }
      const std::uint64_t max_item_bytes =
          static_cast<std::uint64_t>(scenario.item_bytes) * 3 / 2 + 1;
      const std::uint64_t inflight_bound =
          static_cast<std::uint64_t>(scenario.pipeline_window + scenario.pipeline_threads) *
          max_item_bytes;
      for (auto* proxy : proxies) {
        const auto counters = proxy->stats().snapshot();
        const std::string tag = "async(proxy " + std::to_string(proxy->id()) + "): ";
        if (counters.async_submitted != counters.async_settled) {
          note_violation(tag + "submitted " + std::to_string(counters.async_submitted) +
                         " != settled " + std::to_string(counters.async_settled) +
                         " (in-flight bytes leaked: " +
                         std::to_string(counters.async_inflight_bytes) + ")");
        }
        if (counters.async_peak_bytes > inflight_bound) {
          note_violation(tag + "peak in-flight " + std::to_string(counters.async_peak_bytes) +
                         " bytes exceeds window bound " + std::to_string(inflight_bound));
        }
      }
    }
    for (auto* proxy : proxies) {
      const auto counters = proxy->stats().snapshot();
      const std::string tag = "cache(proxy " + std::to_string(proxy->id()) + "): ";
      if (counters.requests != counters.l1_hits + counters.l2_hits + counters.misses) {
        note_violation(tag + "requests " + std::to_string(counters.requests) +
                       " != l1 " + std::to_string(counters.l1_hits) + " + l2 " +
                       std::to_string(counters.l2_hits) + " + miss " +
                       std::to_string(counters.misses));
      }
      if (counters.prefetch_useful > counters.prefetch_issued) {
        note_violation(tag + "prefetch_useful exceeds prefetch_issued");
      }
      // Prefetch bookkeeping boundedness: every still-pending speculative
      // insert must be backed by a resident item — anything that left both
      // tiers must have been erased (and counted wasted), or the pending
      // map grows without bound for the life of the proxy.
      if (proxy->cache().prefetch_pending_count() >
          proxy->cache().l1().item_count() + proxy->cache().l2_item_count()) {
        note_violation(tag + "prefetch bookkeeping leaked: " +
                       std::to_string(proxy->cache().prefetch_pending_count()) +
                       " pending entries exceed " +
                       std::to_string(proxy->cache().l1().item_count()) + " L1 + " +
                       std::to_string(proxy->cache().l2_item_count()) + " L2 residents");
      }
      const auto& l1 = proxy->cache().l1();
      std::uint64_t resident_bytes = 0;
      for (const dms::ItemId id : l1.resident()) {
        if (const dms::Blob blob = l1.peek(id)) {
          resident_bytes += blob->size();
        } else {
          note_violation(tag + "resident item " + std::to_string(id) + " has no blob");
        }
      }
      if (resident_bytes != l1.size_bytes()) {
        note_violation(tag + "L1 byte accounting drifted: resident " +
                       std::to_string(resident_bytes) + " != accounted " +
                       std::to_string(l1.size_bytes()));
      }
      if (l1.size_bytes() > l1.capacity_bytes()) {
        note_violation(tag + "L1 over capacity: " + std::to_string(l1.size_bytes()) + " > " +
                       std::to_string(l1.capacity_bytes()));
      }
      if (scenario.l2 && proxy->cache().l2_size_bytes() > scenario.l2_bytes) {
        note_violation(tag + "L2 over capacity: " +
                       std::to_string(proxy->cache().l2_size_bytes()) + " > " +
                       std::to_string(scenario.l2_bytes));
      }
    }

    // Finalize the deterministic trajectory before teardown: joins leave
    // the machine and race the OS, so everything after this point is
    // excluded from the replay contract.
    result.trajectory_hash = transport->trajectory_hash();
    result.transport_events = transport->event_count();
    result.context_switches = clock->switches();
    result.virtual_end_ns = clock->now_ns();
    result.faults = transport->stats();
    result.ranks_killed = transport->dead_count();

    backend.shutdown();
  }
  clock->unregister_driver();
  util::set_global_clock(nullptr);
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex);
    scenario_done = true;
  }
  watchdog_cv.notify_one();
  watchdog.join();
  return result;
}

}  // namespace vira::sim
