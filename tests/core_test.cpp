#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "core/backend.hpp"
#include "core/vmb_data_source.hpp"
#include "grid/synthetic.hpp"
#include "test_util.hpp"
#include "util/log.hpp"
#include "viz/session.hpp"

namespace vc = vira::core;
namespace vg = vira::grid;
namespace vu = vira::util;

namespace {

/// Echoes its "text" parameter back, optionally streaming N partials first,
/// optionally failing, optionally touching blocks through the DMS.
class EchoCommand final : public vc::Command {
 public:
  std::string name() const override { return "test.echo"; }

  void execute(vc::CommandContext& context) override {
    const auto& params = context.params();
    if (params.get_bool("fail", false)) {
      throw std::runtime_error("echo asked to fail");
    }
    context.phases().enter(vc::kPhaseCompute);

    const auto partials = params.get_int("partials", 0);
    for (int n = 0; n < partials; ++n) {
      vu::ByteBuffer fragment;
      fragment.write_string("partial-" + std::to_string(context.group_rank()) + "-" +
                            std::to_string(n));
      context.stream_partial(std::move(fragment));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Ask for the dataset's metadata (only a .vmb source answers) and touch
    // a dataset block (exercises the DMS path) if requested.
    const auto dataset = params.get_or("dataset", "");
    if (params.get_bool("meta", false)) {
      (void)context.dataset_meta(dataset);
    }
    if (!dataset.empty()) {
      context.phases().enter(vc::kPhaseRead);
      const auto blob = context.proxy().request(vira::dms::block_item(dataset, 0, 0));
      EXPECT_NE(blob, nullptr);
      context.phases().enter(vc::kPhaseCompute);
    }

    // Gather per-worker contributions at the master.
    vu::ByteBuffer part;
    part.write<std::int32_t>(context.group_rank());
    auto parts = context.gather_at_master(std::move(part));
    if (context.is_master()) {
      vu::ByteBuffer result;
      result.write_string(params.get_or("text", ""));
      result.write<std::uint32_t>(static_cast<std::uint32_t>(parts.size()));
      context.send_final(std::move(result));
    }
    context.phases().stop();
  }
};

struct RegisterCommands {
  RegisterCommands() {
    vc::CommandRegistry::global().register_command(
        "test.echo", [] { return std::make_unique<EchoCommand>(); });
  }
};
RegisterCommands register_commands;  // NOLINT

/// A DMS source that is not a .vmb dataset: every item is the same 8 bytes.
class ConstantSource final : public vira::dms::DataSource {
 public:
  vu::ByteBuffer load(const vira::dms::DataItemName& /*name*/) override {
    vu::ByteBuffer bytes;
    bytes.write<std::uint64_t>(42);
    return bytes;
  }
  std::uint64_t item_bytes(const vira::dms::DataItemName& /*name*/) const override { return 8; }
  std::uint64_t file_bytes(const vira::dms::DataItemName& /*name*/) const override { return 8; }
  std::string file_key(const vira::dms::DataItemName& name) const override {
    return name.canonical();
  }
  std::vector<std::pair<vira::dms::DataItemName, vu::ByteBuffer>> load_file(
      const vira::dms::DataItemName& name) override {
    return {{name, load(name)}};
  }
};

std::string make_dataset() {
  static std::string dir;
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "vira_core_test_ds").string();
    std::filesystem::remove_all(dir);
    vg::UniformFlow flow({1, 0, 0});
    vg::generate_box(dir, flow, 2, 5, 5, 5, {0, 0, 0}, {1, 1, 1}, 0.1, 3);
  }
  return dir;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(CommandRegistry, CreateAndErrors) {
  auto& registry = vc::CommandRegistry::global();
  EXPECT_TRUE(registry.knows("test.echo"));
  auto command = registry.create("test.echo");
  EXPECT_EQ(command->name(), "test.echo");
  EXPECT_THROW(registry.create("no.such.command"), std::invalid_argument);
  EXPECT_FALSE(registry.knows("no.such.command"));
}

// ---------------------------------------------------------------------------
// Backend end-to-end over the in-process link
// ---------------------------------------------------------------------------

TEST(Backend, RoundTripSingleWorker) {
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set("text", "hello-viracocha");
  auto stream = session.submit("test.echo", params);

  std::vector<vu::ByteBuffer> fragments;
  const auto stats = stream->wait(&fragments);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.workers, 1);
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0].read_string(), "hello-viracocha");
  EXPECT_EQ(fragments[0].read<std::uint32_t>(), 1u);
}

TEST(Backend, WorkGroupGathersAllWorkers) {
  vc::BackendConfig config;
  config.workers = 4;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set("text", "group");
  params.set_int("workers", 4);
  auto stream = session.submit("test.echo", params);
  std::vector<vu::ByteBuffer> fragments;
  const auto stats = stream->wait(&fragments);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.workers, 4);
  ASSERT_EQ(fragments.size(), 1u);
  (void)fragments[0].read_string();
  EXPECT_EQ(fragments[0].read<std::uint32_t>(), 4u);
}

TEST(Backend, StreamedPartialsArriveBeforeCompletion) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set_int("partials", 3);
  params.set_int("workers", 2);
  auto stream = session.submit("test.echo", params);

  int partials = 0;
  int finals = 0;
  bool complete = false;
  while (!complete) {
    auto packet = stream->next(std::chrono::milliseconds(10000));
    ASSERT_TRUE(packet.has_value());
    switch (packet->kind) {
      case vira::viz::Packet::Kind::kPartial:
        ++partials;
        EXPECT_FALSE(complete);
        break;
      case vira::viz::Packet::Kind::kFinal:
        ++finals;
        break;
      case vira::viz::Packet::Kind::kComplete:
        complete = true;
        EXPECT_TRUE(packet->stats.success);
        EXPECT_EQ(packet->stats.partial_packets, 6u);
        // Streaming latency must be at most the total runtime.
        EXPECT_LE(packet->stats.latency, packet->stats.total_runtime + 1e-9);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(partials, 6);  // 3 per worker x 2 workers
  EXPECT_EQ(finals, 1);
  EXPECT_GE(stream->first_data_seconds(), 0.0);
}

TEST(Backend, CommandErrorsReachTheClient) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set_bool("fail", true);
  auto stream = session.submit("test.echo", params);
  const auto stats = stream->wait();
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.error.find("echo asked to fail"), std::string::npos);
}

TEST(Backend, UnknownCommandFailsGracefully) {
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());
  auto stream = session.submit("does.not.exist", {});
  const auto stats = stream->wait();
  EXPECT_FALSE(stats.success);
}

TEST(Backend, SequentialRequestsReuseWorkers) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  for (int round = 0; round < 5; ++round) {
    vu::ParamList params;
    params.set("text", "round-" + std::to_string(round));
    auto stream = session.submit("test.echo", params);
    std::vector<vu::ByteBuffer> fragments;
    const auto stats = stream->wait(&fragments);
    EXPECT_TRUE(stats.success);
    ASSERT_EQ(fragments.size(), 1u);
    EXPECT_EQ(fragments[0].read_string(), "round-" + std::to_string(round));
    // The pool settles back to full strength between rounds. Done reports
    // arrive after the client's Complete, so this is a predicate-wait, not
    // an immediate assertion (and not a fixed sleep).
    EXPECT_TRUE(vira::test::eventually(
        [&] { return backend.scheduler().free_workers() == 2u; }))
        << "round " << round << ": free=" << backend.scheduler().free_workers();
  }
}

TEST(Backend, ConcurrentRequestsQueueWhenWorkersBusy) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  // Two requests, each wanting both workers: the second must queue and
  // still complete correctly.
  vu::ParamList params;
  params.set_int("partials", 5);
  params.set_int("workers", 2);
  auto first = session.submit("test.echo", params);
  auto second = session.submit("test.echo", params);
  EXPECT_TRUE(first->wait().success);
  EXPECT_TRUE(second->wait().success);
}

TEST(Backend, SmallerGroupsRunConcurrently) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set_int("partials", 3);
  params.set_int("workers", 1);
  auto a = session.submit("test.echo", params);
  auto b = session.submit("test.echo", params);
  EXPECT_TRUE(a->wait().success);
  EXPECT_TRUE(b->wait().success);
}

TEST(Backend, DmsPathWorksThroughCommands) {
  const auto dataset = make_dataset();
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set("dataset", dataset);
  params.set_int("workers", 2);
  EXPECT_TRUE(session.submit("test.echo", params)->wait().success);
  const auto counters_first = backend.dms_counters();
  EXPECT_GE(counters_first.misses, 1u);

  // Second run: cached.
  EXPECT_TRUE(session.submit("test.echo", params)->wait().success);
  const auto counters_second = backend.dms_counters();
  EXPECT_GE(counters_second.l1_hits, counters_first.l1_hits + 2);

  // Cold start switch.
  backend.clear_caches();
  EXPECT_TRUE(session.submit("test.echo", params)->wait().success);
  EXPECT_GE(backend.dms_counters().misses, counters_second.misses + 1);
}

TEST(Backend, PhaseBreakdownIsReported) {
  const auto dataset = make_dataset();
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set("dataset", dataset);
  const auto stats = session.submit("test.echo", params)->wait();
  EXPECT_TRUE(stats.success);
  EXPECT_GT(stats.phase_seconds.count(vc::kPhaseCompute), 0u);
  EXPECT_GT(stats.phase_seconds.count(vc::kPhaseRead), 0u);
}

TEST(Backend, DataVersionBumpTurnsTheNextRepeatIntoARecompute) {
  // The result cache keys on the data server's dataset version whichever
  // way the proxies reach that server.
  for (const bool over_messages : {false, true}) {
    SCOPED_TRACE(over_messages ? "dms_over_messages" : "direct DMS calls");
    vc::BackendConfig config;
    config.workers = 1;
    config.dms_over_messages = over_messages;
    config.scheduler.result_cache.enabled = true;
    vc::Backend backend(config);
    vira::viz::ExtractionSession session(backend.connect());

    vu::ParamList params;
    params.set("text", "versioned");
    EXPECT_FALSE(session.submit("test.echo", params)->wait().cache_hit);
    EXPECT_TRUE(session.submit("test.echo", params)->wait().cache_hit);
    backend.data_server().names().bump_data_version();
    const auto stats = session.submit("test.echo", params)->wait();
    EXPECT_TRUE(stats.success) << stats.error;
    EXPECT_FALSE(stats.cache_hit);
    EXPECT_EQ(stats.data_version, 2u);
  }
}

TEST(Backend, InjectedSourceServesLoadsButNoDatasetMetadata) {
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config, nullptr, std::make_shared<ConstantSource>());
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set("dataset", "constant");
  EXPECT_TRUE(session.submit("test.echo", params)->wait().success);
  EXPECT_EQ(backend.dms_counters().misses, 1u);

  params.set_bool("meta", true);
  const auto stats = session.submit("test.echo", params)->wait();
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.error.find(".vmb data source"), std::string::npos) << stats.error;
}

TEST(Backend, MergedDmsCountersIncludePrefetchWaste) {
  vc::BackendConfig config;
  config.workers = 1;
  config.l1_cache_bytes = 16;  // two of ConstantSource's 8-byte items
  config.cache_policy = "lru";
  config.async_prefetch = false;
  vc::Backend backend(config, nullptr, std::make_shared<ConstantSource>());
  auto& proxy = backend.worker_proxy(0);
  proxy.configure_prefetcher("obl", vc::make_block_successor(proxy.resolver(), 8, 1, false));
  // OBL prefetches the two blocks after each demand load into the two-item
  // L1, so every odd block is evicted by the next prefetch, never requested.
  for (int block = 0; block < 8; block += 2) {
    ASSERT_NE(proxy.request(vira::dms::block_item("constant", 0, block)), nullptr);
  }
  const auto wasted = proxy.stats().snapshot().prefetch_wasted;
  EXPECT_GT(wasted, 0u);
  EXPECT_EQ(backend.dms_counters().prefetch_wasted, wasted);
}

TEST(Backend, RejectsATransportWithoutARankPerWorker) {
  vc::BackendConfig config;
  config.workers = 2;
  EXPECT_THROW(vc::Backend(config, std::make_shared<vira::comm::InProcTransport>(2)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Backend over real TCP
// ---------------------------------------------------------------------------

TEST(Backend, TcpClientRoundTrip) {
  vc::BackendConfig config;
  config.workers = 2;
  vc::Backend backend(config);
  const auto port = backend.serve_tcp();
  ASSERT_GT(port, 0);

  auto link = vira::comm::tcp_connect("127.0.0.1", port);
  vira::viz::ExtractionSession session(std::shared_ptr<vira::comm::ClientLink>(link.release()));

  vu::ParamList params;
  params.set("text", "over-tcp");
  params.set_int("partials", 2);
  auto stream = session.submit("test.echo", params);
  std::vector<vu::ByteBuffer> fragments;
  const auto stats = stream->wait(&fragments);
  EXPECT_TRUE(stats.success);
  ASSERT_GE(fragments.size(), 1u);
  EXPECT_EQ(fragments.back().read_string(), "over-tcp");
}

// ---------------------------------------------------------------------------
// VmbDataSource
// ---------------------------------------------------------------------------

TEST(VmbDataSource, LoadsExactBlockBytes) {
  const auto dataset = make_dataset();
  vc::VmbDataSource source;
  const auto name = vira::dms::block_item(dataset, 1, 2);
  auto bytes = source.load(name);
  EXPECT_EQ(bytes.size(), source.item_bytes(name));
  const auto block = vg::StructuredBlock::deserialize(bytes);
  EXPECT_EQ(block.block_id(), 2);
}

TEST(VmbDataSource, FileBytesSumBlocks) {
  const auto dataset = make_dataset();
  vc::VmbDataSource source;
  const auto name = vira::dms::block_item(dataset, 0, 0);
  std::uint64_t sum = 0;
  for (int b = 0; b < 3; ++b) {
    sum += source.item_bytes(vira::dms::block_item(dataset, 0, b));
  }
  EXPECT_EQ(source.file_bytes(name), sum);
  EXPECT_NE(source.file_key(name), source.file_key(vira::dms::block_item(dataset, 1, 0)));
}

TEST(VmbDataSource, CollectiveLoadReturnsWholeStep) {
  const auto dataset = make_dataset();
  vc::VmbDataSource source;
  auto items = source.load_file(vira::dms::block_item(dataset, 0, 1));
  EXPECT_EQ(items.size(), 3u);
}

TEST(VmbDataSource, RejectsUnknownItemTypes) {
  vc::VmbDataSource source;
  vira::dms::DataItemName bad;
  bad.source = "somewhere";
  bad.type = "exotic";
  EXPECT_THROW((void)source.item_bytes(bad), std::invalid_argument);
}

TEST(VmbDataSource, BlockSuccessorWalksFileOrder) {
  vira::dms::NameService names;
  vira::dms::NameResolver resolver(
      [&names](const vira::dms::DataItemName& name) { return names.intern(name); });
  auto successor = vc::make_block_successor(resolver, /*blocks_per_step=*/3, /*step_count=*/2,
                                            /*wrap_steps=*/true);
  const auto id00 = resolver.resolve(vira::dms::block_item("ds", 0, 0));
  const auto id01 = resolver.resolve(vira::dms::block_item("ds", 0, 1));
  const auto id02 = resolver.resolve(vira::dms::block_item("ds", 0, 2));
  const auto id10 = resolver.resolve(vira::dms::block_item("ds", 1, 0));
  const auto id12 = resolver.resolve(vira::dms::block_item("ds", 1, 2));

  EXPECT_EQ(successor(id00).value(), id01);
  EXPECT_EQ(successor(id01).value(), id02);
  EXPECT_EQ(successor(id02).value(), id10);   // wraps into the next step
  EXPECT_FALSE(successor(id12).has_value());  // end of dataset

  auto no_wrap = vc::make_block_successor(resolver, 3, 2, /*wrap_steps=*/false);
  EXPECT_FALSE(no_wrap(id02).has_value());
}

namespace {

/// Fails on exactly one group member — the partial-failure scenario.
class FailRankCommand final : public vc::Command {
 public:
  std::string name() const override { return "test.fail_rank"; }
  void execute(vc::CommandContext& context) override {
    const auto victim = context.params().get_int("victim", 1);
    if (context.group_rank() == victim) {
      throw std::runtime_error("rank " + std::to_string(victim) + " was told to fail");
    }
    // Survivors still gather (non-victims must not deadlock: the victim
    // never reaches the gather, so survivors must not wait on it).
    if (context.is_master() && context.group_size() == 1) {
      context.send_final({});
    }
  }
};

struct RegisterFailRank {
  RegisterFailRank() {
    vc::CommandRegistry::global().register_command(
        "test.fail_rank", [] { return std::make_unique<FailRankCommand>(); });
  }
};
RegisterFailRank register_fail_rank;  // NOLINT

}  // namespace

TEST(Backend, PartialWorkerFailureFailsCommandButFreesWorkers) {
  vc::BackendConfig config;
  config.workers = 3;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList params;
  params.set_int("workers", 3);
  params.set_int("victim", 1);
  const auto stats = session.submit("test.fail_rank", params)->wait();
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.error.find("told to fail"), std::string::npos);

  // All three workers are free again: a full-width command completes.
  vu::ParamList ok_params;
  ok_params.set("text", "recovered");
  ok_params.set_int("workers", 3);
  const auto next = session.submit("test.echo", ok_params)->wait();
  EXPECT_TRUE(next.success) << next.error;
}

// ---------------------------------------------------------------------------
// QoS scheduling (DESIGN.md "Scheduling & QoS"): queued-cancel answers,
// fair-share backfilling across clients, the aging bound, admission control
// and closed-link reaping — the real stack over InProcTransport. Each case
// has a virtual-time twin in dst_test.cpp.

TEST(SchedulerQos, QueuedCancelCompletesPromptly) {
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  // Occupy the only worker, then queue a second request behind it.
  vu::ParamList blocker_params;
  blocker_params.set_int("partials", 150);
  auto blocker = session.submit("test.echo", blocker_params);
  vu::ParamList params;
  params.set("text", "never-runs");
  auto queued = session.submit("test.echo", params);
  ASSERT_TRUE(vira::test::eventually(
      [&] { return backend.scheduler().queued_requests() == 1u; }));

  // A cancel of a never-dispatched request answers from the queue: the
  // stream terminates with an error now, not after the blocker drains.
  session.cancel(queued->request_id());
  const auto cancel_sent = std::chrono::steady_clock::now();
  const auto stats = queued->wait(nullptr, std::chrono::milliseconds(2000));
  const auto answer_delay = std::chrono::steady_clock::now() - cancel_sent;
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.error.find("cancelled"), std::string::npos) << stats.error;
  EXPECT_LT(answer_delay, std::chrono::milliseconds(1000));
  EXPECT_TRUE(blocker->wait().success);
}

TEST(SchedulerQos, TwoClientFairShareBackfillsNarrowRequest) {
  vc::BackendConfig config;
  config.workers = 4;
  vc::Backend backend(config);
  vira::viz::ExtractionSession wide_client(backend.connect());
  vira::viz::ExtractionSession narrow_client(backend.connect());

  // Client A streams full-width requests back to back (~800 ms each — the
  // pacing must dwarf scheduling noise on a loaded single-core CI box, or
  // the post-completion queue-state check below races the wide backlog).
  vu::ParamList wide_params;
  wide_params.set_int("workers", 4);
  wide_params.set_int("partials", 400);
  std::vector<std::shared_ptr<vira::viz::ResultStream>> wide;
  for (int i = 0; i < 3; ++i) {
    wide.push_back(wide_client.submit("test.echo", wide_params));
  }
  ASSERT_TRUE(vira::test::eventually(
      [&] { return backend.scheduler().active_groups() >= 1u; }));

  // Client B's narrow request must not wait for A's whole backlog: under
  // FIFO it would sit behind ~2.4 s of queue; fair share dispatches it as
  // soon as a worker frees. It streams ~400 ms itself so client B is still
  // an active client when the next wide request dispatches — a one-packet
  // request can slip through a single early-freed rank of A's running
  // group and depart before any wide dispatch ever sees two clients (in
  // which case nothing would mold).
  vu::ParamList narrow_params;
  narrow_params.set_int("workers", 1);
  narrow_params.set_int("partials", 200);
  auto narrow = narrow_client.submit("test.echo", narrow_params);
  const auto narrow_stats = narrow->wait(nullptr, std::chrono::milliseconds(10000));
  EXPECT_TRUE(narrow_stats.success) << narrow_stats.error;
  // The discriminating property (wall-clock-free, so sanitizer slowdowns
  // don't matter): under FIFO the narrow request would complete *after*
  // the whole wide backlog; under fair share it overtakes it.
  EXPECT_TRUE(backend.scheduler().active_groups() >= 1 ||
              backend.scheduler().queued_requests() >= 1)
      << "narrow request completed after the entire wide backlog";

  // With two active clients the derived full-width requests mold to the
  // fair share (ceil(4 / 2) = 2); the clamp is recorded in the stats.
  bool molded = false;
  for (auto& stream : wide) {
    const auto stats = stream->wait();
    EXPECT_TRUE(stats.success) << stats.error;
    EXPECT_EQ(stats.requested_workers, 4);
    molded = molded || stats.workers < stats.requested_workers;
  }
  EXPECT_TRUE(molded);
  EXPECT_GE(backend.scheduler().total_backfills(), 1u);
}

TEST(SchedulerQos, AgingBoundDispatchesBypassedHead) {
  vc::BackendConfig config;
  config.workers = 3;
  config.scheduler.max_head_bypass = 2;
  vc::Backend backend(config);
  vira::viz::ExtractionSession client_a(backend.connect());
  vira::viz::ExtractionSession client_b(backend.connect());

  // Pin two workers with long narrow streams, one per client.
  vu::ParamList pin_params;
  pin_params.set_int("workers", 1);
  pin_params.set_int("partials", 250);
  auto pin_a = client_a.submit("test.echo", pin_params);
  auto pin_b = client_b.submit("test.echo", pin_params);
  ASSERT_TRUE(vira::test::eventually(
      [&] { return backend.scheduler().free_workers() == 1u; }));

  // Client A's wide request heads the queue but cannot fit: it molds to
  // the two-client share (2) with only one worker free.
  vu::ParamList wide_params;
  wide_params.set_int("workers", 3);
  wide_params.set("text", "wide");
  auto wide = client_a.submit("test.echo", wide_params);
  // The wide request must head the queue before the flood arrives,
  // otherwise the narrows dispatch as heads and nothing is bypassed.
  ASSERT_TRUE(vira::test::eventually(
      [&] { return backend.scheduler().queued_requests() == 1u; }));

  // Client B floods narrow work that backfills past the blocked head —
  // but only max_head_bypass (2) times; then the head ages into strict
  // priority and takes the next workers that free up.
  vu::ParamList narrow_params;
  narrow_params.set_int("workers", 1);
  narrow_params.set_int("partials", 3);
  std::vector<std::shared_ptr<vira::viz::ResultStream>> narrow;
  for (int i = 0; i < 8; ++i) {
    narrow.push_back(client_b.submit("test.echo", narrow_params));
  }

  const auto wide_stats = wide->wait(nullptr, std::chrono::milliseconds(10000));
  EXPECT_TRUE(wide_stats.success) << wide_stats.error;
  for (auto& stream : narrow) {
    EXPECT_TRUE(stream->wait().success);
  }
  EXPECT_TRUE(pin_a->wait().success);
  EXPECT_TRUE(pin_b->wait().success);
  EXPECT_GE(backend.scheduler().total_backfills(), 1u);
  EXPECT_LE(backend.scheduler().max_head_bypass_observed(), 2);
}

TEST(SchedulerQos, AdmissionControlRejectsBeyondQueueBound) {
  vc::BackendConfig config;
  config.workers = 1;
  config.scheduler.max_queue_per_client = 1;
  vc::Backend backend(config);
  vira::viz::ExtractionSession session(backend.connect());

  vu::ParamList blocker_params;
  blocker_params.set_int("partials", 150);
  auto blocker = session.submit("test.echo", blocker_params);
  ASSERT_TRUE(vira::test::eventually(
      [&] { return backend.scheduler().free_workers() == 0u; }));

  vu::ParamList params;
  params.set("text", "queued");
  auto queued = session.submit("test.echo", params);
  ASSERT_TRUE(vira::test::eventually(
      [&] { return backend.scheduler().queued_requests() == 1u; }));

  // The queue bound is reached: the next submission is refused up front
  // (kTagRejected), surfaced as a failed CommandStats — no silent drop.
  auto rejected = session.submit("test.echo", params);
  const auto stats = rejected->wait(nullptr, std::chrono::milliseconds(2000));
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.error.find("queue depth"), std::string::npos) << stats.error;
  EXPECT_EQ(backend.scheduler().total_rejected(), 1u);

  // The admitted work is unaffected.
  EXPECT_TRUE(queued->wait().success);
  EXPECT_TRUE(blocker->wait().success);
}

TEST(SchedulerQos, ClosedClientLinkReapsQueuedAndInFlightWork) {
  vc::BackendConfig config;
  config.workers = 1;
  vc::Backend backend(config);
  auto victim = std::make_unique<vira::viz::ExtractionSession>(backend.connect());
  vira::viz::ExtractionSession survivor(backend.connect());

  // The victim holds the worker and queues more work, then disconnects.
  vu::ParamList blocker_params;
  blocker_params.set_int("partials", 250);
  victim->submit("test.echo", blocker_params);
  vu::ParamList queued_params;
  queued_params.set("text", "orphaned");
  victim->submit("test.echo", queued_params);
  ASSERT_TRUE(vira::test::eventually(
      [&] { return backend.scheduler().queued_requests() == 1u; }));
  victim.reset();

  // Queued work is dropped and the in-flight group is cancelled; the pool
  // settles back to full strength instead of serving a dead link.
  EXPECT_TRUE(vira::test::eventually([&] {
    return backend.scheduler().queued_requests() == 0u &&
           backend.scheduler().free_workers() == 1u;
  })) << "queued=" << backend.scheduler().queued_requests()
      << " free=" << backend.scheduler().free_workers();
  EXPECT_GE(backend.scheduler().total_reaped(), 1u);

  // The surviving client is unaffected.
  vu::ParamList params;
  params.set("text", "alive");
  const auto stats = survivor.submit("test.echo", params)->wait();
  EXPECT_TRUE(stats.success) << stats.error;
}
