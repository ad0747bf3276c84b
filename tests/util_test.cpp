#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/blocking_queue.hpp"
#include "util/byte_buffer.hpp"
#include "util/log.hpp"
#include "util/param_list.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/task_pool.hpp"
#include "util/timer.hpp"

namespace vu = vira::util;

// ---------------------------------------------------------------------------
// ByteBuffer
// ---------------------------------------------------------------------------

TEST(ByteBuffer, RoundTripsScalars) {
  vu::ByteBuffer buf;
  buf.write<std::int32_t>(-42);
  buf.write<double>(3.25);
  buf.write<std::uint8_t>(0xff);
  EXPECT_EQ(buf.read<std::int32_t>(), -42);
  EXPECT_EQ(buf.read<double>(), 3.25);
  EXPECT_EQ(buf.read<std::uint8_t>(), 0xff);
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(ByteBuffer, RoundTripsStringsAndVectors) {
  vu::ByteBuffer buf;
  buf.write_string("viracocha");
  buf.write_string("");
  buf.write_vector<float>({1.0f, 2.0f, 3.5f});
  buf.write_vector<std::int64_t>({});
  EXPECT_EQ(buf.read_string(), "viracocha");
  EXPECT_EQ(buf.read_string(), "");
  EXPECT_EQ(buf.read_vector<float>(), (std::vector<float>{1.0f, 2.0f, 3.5f}));
  EXPECT_TRUE(buf.read_vector<std::int64_t>().empty());
}

TEST(ByteBuffer, ReadPastEndThrows) {
  vu::ByteBuffer buf;
  buf.write<std::int16_t>(7);
  (void)buf.read<std::int16_t>();
  EXPECT_THROW((void)buf.read<std::int16_t>(), std::out_of_range);
}

TEST(ByteBuffer, CorruptStringLengthThrows) {
  vu::ByteBuffer buf;
  buf.write<std::uint64_t>(1u << 30);  // length prefix with no payload
  EXPECT_THROW((void)buf.read_string(), std::out_of_range);
}

TEST(ByteBuffer, SeekAllowsRereading) {
  vu::ByteBuffer buf;
  buf.write<int>(1);
  buf.write<int>(2);
  EXPECT_EQ(buf.read<int>(), 1);
  buf.seek(0);
  EXPECT_EQ(buf.read<int>(), 1);
  EXPECT_EQ(buf.read<int>(), 2);
  EXPECT_THROW(buf.seek(1000), std::out_of_range);
}

// ---------------------------------------------------------------------------
// ParamList
// ---------------------------------------------------------------------------

TEST(ParamList, TypedAccessors) {
  vu::ParamList params;
  params.set_double("iso", 0.25);
  params.set_int("timestep", 12);
  params.set_bool("stream", true);
  params.set("field", "density");

  EXPECT_DOUBLE_EQ(params.get_double("iso", 0.0), 0.25);
  EXPECT_EQ(params.get_int("timestep", -1), 12);
  EXPECT_TRUE(params.get_bool("stream", false));
  EXPECT_EQ(params.get_or("field", ""), "density");
  EXPECT_EQ(params.get_int("missing", 99), 99);
  EXPECT_FALSE(params.get("missing").has_value());
}

TEST(ParamList, DoubleVectorRoundTrip) {
  vu::ParamList params;
  params.set_doubles("seed", {1.5, -2.0, 0.25});
  const auto seed = params.get_doubles("seed");
  ASSERT_EQ(seed.size(), 3u);
  EXPECT_DOUBLE_EQ(seed[0], 1.5);
  EXPECT_DOUBLE_EQ(seed[1], -2.0);
  EXPECT_DOUBLE_EQ(seed[2], 0.25);
}

TEST(ParamList, CanonicalIsOrderIndependent) {
  vu::ParamList a;
  a.set("b", "2");
  a.set("a", "1");
  vu::ParamList b;
  b.set("a", "1");
  b.set("b", "2");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.canonical(), "a=1;b=2");
}

TEST(ParamList, SerializationRoundTrip) {
  vu::ParamList params;
  params.set_double("iso", 0.125);
  params.set("viewpoint", "1,2,3");
  vu::ByteBuffer buf;
  params.serialize(buf);
  const auto restored = vu::ParamList::deserialize(buf);
  EXPECT_EQ(restored, params);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  vu::Rng a(123);
  vu::Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, UniformStaysInRange) {
  vu::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, NormalHasReasonableMoments) {
  vu::Rng rng(42);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / kSamples - mean * mean), 1.0, 0.05);
}

TEST(Rng, ForkedStreamsDiffer) {
  vu::Rng rng(9);
  auto a = rng.fork(1);
  auto b = rng.fork(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ---------------------------------------------------------------------------
// string_util
// ---------------------------------------------------------------------------

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(vu::human_bytes(512), "512 B");
  EXPECT_EQ(vu::human_bytes(2048), "2.00 KB");
  EXPECT_EQ(vu::human_bytes(static_cast<std::uint64_t>(1.12 * 1024 * 1024 * 1024)), "1.12 GB");
}

TEST(StringUtil, SplitAndJoin) {
  const auto parts = vu::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(vu::join({"x", "y", "z"}, "-"), "x-y-z");
}

TEST(StringUtil, PadWidths) {
  EXPECT_EQ(vu::pad("ab", 5), "ab   ");
  EXPECT_EQ(vu::pad("ab", 5, false), "   ab");
  EXPECT_EQ(vu::pad("abcdef", 3), "abc");
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

TEST(PhaseTimer, AttributesTimeToPhases) {
  vu::PhaseTimer timer;
  timer.enter("compute");
  timer.enter("read");
  timer.stop();
  EXPECT_GE(timer.seconds("compute"), 0.0);
  EXPECT_GE(timer.seconds("read"), 0.0);
  EXPECT_EQ(timer.seconds("send"), 0.0);
  EXPECT_EQ(timer.phases().size(), 2u);
}

TEST(PhaseTimer, MergeAccumulates) {
  vu::PhaseTimer a;
  a.enter("compute");
  a.stop();
  vu::PhaseTimer b;
  b.enter("compute");
  b.enter("send");
  b.stop();
  a.merge(b);
  EXPECT_EQ(a.phases().size(), 2u);
}

TEST(PhaseTimer, AddRejectsGarbageSamples) {
  vu::PhaseTimer timer;
  timer.add("compute", 1.5);
  timer.add("compute", -3.0);  // negative: dropped
  timer.add("compute", std::numeric_limits<double>::quiet_NaN());
  timer.add("compute", std::numeric_limits<double>::infinity());
  timer.add("", 2.0);  // unnamed phase: dropped
  EXPECT_DOUBLE_EQ(timer.seconds("compute"), 1.5);
  EXPECT_EQ(timer.phases().size(), 1u);
}

TEST(PhaseTimer, MergeSaturatesInsteadOfOverflowing) {
  vu::PhaseTimer a;
  a.add("compute", std::numeric_limits<double>::max());
  vu::PhaseTimer b;
  b.add("compute", std::numeric_limits<double>::max());
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.seconds("compute"), std::numeric_limits<double>::max());
  EXPECT_TRUE(std::isfinite(a.seconds("compute")));
}

TEST(PhaseTimer, ListenerSeesEveryTransition) {
  vu::PhaseTimer timer;
  std::vector<std::pair<std::string, std::string>> transitions;
  timer.set_listener([&](const std::string& from, const std::string& to) {
    transitions.emplace_back(from, to);
  });
  timer.enter("read");
  timer.enter("read");  // same phase: no transition
  timer.enter("compute");
  timer.reset();  // open phase closes with an empty "next"
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0], (std::pair<std::string, std::string>{"", "read"}));
  EXPECT_EQ(transitions[1], (std::pair<std::string, std::string>{"read", "compute"}));
  EXPECT_EQ(transitions[2], (std::pair<std::string, std::string>{"compute", ""}));
}

TEST(ScopedPhase, RestoresPreviousPhase) {
  vu::PhaseTimer timer;
  timer.enter("outer");
  {
    vu::ScopedPhase inner(timer, "inner");
    EXPECT_EQ(timer.current(), "inner");
  }
  EXPECT_EQ(timer.current(), "outer");
  timer.stop();
}

TEST(WallTimer, PauseStopsAccumulation) {
  vu::WallTimer timer;
  timer.pause();
  const double t0 = timer.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_DOUBLE_EQ(timer.seconds(), t0);
  timer.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(timer.seconds(), t0);
}

// ---------------------------------------------------------------------------
// BlockingQueue
// ---------------------------------------------------------------------------

TEST(BlockingQueue, FifoOrder) {
  vu::BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BlockingQueue, CloseReleasesConsumers) {
  vu::BlockingQueue<int> q;
  std::thread consumer([&] {
    const auto item = q.pop();
    EXPECT_FALSE(item.has_value());
  });
  q.close();
  consumer.join();
  EXPECT_FALSE(q.push(1));
}

TEST(BlockingQueue, PopForTimesOut) {
  vu::BlockingQueue<int> q;
  const auto item = q.pop_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(item.has_value());
}

TEST(BlockingQueue, ManyProducersOneConsumer) {
  vu::BlockingQueue<int> q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(p * kPerProducer + i);
      }
    });
  }
  int count = 0;
  long long sum = 0;
  while (count < kProducers * kPerProducer) {
    auto item = q.pop();
    ASSERT_TRUE(item.has_value());
    sum += *item;
    ++count;
  }
  for (auto& t : producers) {
    t.join();
  }
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(BlockingQueue, CloseUnblocksPopForPromptly) {
  // Shutdown race: a consumer parked in pop_for() with a long timeout must
  // be released by close() right away, not after the timeout expires.
  vu::BlockingQueue<int> q;
  std::atomic<bool> released{false};
  std::thread consumer([&] {
    const auto item = q.pop_for(std::chrono::seconds(30));
    EXPECT_FALSE(item.has_value());
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto before = std::chrono::steady_clock::now();
  q.close();
  consumer.join();
  const auto waited = std::chrono::steady_clock::now() - before;
  EXPECT_TRUE(released.load());
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(BlockingQueue, CloseIsIdempotentAndDrainsBufferedItems) {
  vu::BlockingQueue<int> q;
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  q.close();  // second close is a no-op
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(3));  // late push dropped
  // Items enqueued before the close still drain (end-of-stream afterwards).
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(10)).value(), 2);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, ConcurrentPushPopCloseDoesNotLoseDeliveredItems) {
  // Producers racing close(): every pop()ed value must be one that push()
  // acknowledged, and all consumers must terminate.
  vu::BlockingQueue<int> q;
  constexpr int kProducers = 4;
  std::atomic<int> accepted{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + 2);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, &accepted, p] {
      for (int i = 0; i < 1000; ++i) {
        if (q.push(p * 1000 + i)) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&q, &popped] {
      while (q.pop().has_value()) {
        popped.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();
  for (auto& t : threads) {
    t.join();
  }
  // Consumers saw at most what was accepted; whatever is left is buffered.
  int drained = 0;
  while (q.try_pop().has_value()) {
    ++drained;
  }
  EXPECT_EQ(popped.load() + drained, accepted.load());
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

TEST(Logger, RespectsLevelAndComponent) {
  std::ostringstream sink;
  auto& logger = vu::Logger::instance();
  logger.set_stream(&sink);
  logger.set_level(vu::LogLevel::kWarn);

  VIRA_INFO("test") << "hidden";
  VIRA_WARN("test") << "visible " << 42;

  logger.set_stream(nullptr);
  logger.set_level(vu::LogLevel::kInfo);

  const std::string output = sink.str();
  EXPECT_EQ(output.find("hidden"), std::string::npos);
  EXPECT_NE(output.find("visible 42"), std::string::npos);
  EXPECT_NE(output.find("[test]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ByteReader (zero-copy cursor)
// ---------------------------------------------------------------------------

TEST(ByteReader, ReadsWithoutCopyingBuffer) {
  vu::ByteBuffer buf;
  buf.write<std::int32_t>(-7);
  buf.write_string("cursor");
  buf.write_vector<float>({1.5f, 2.5f});

  vu::ByteReader reader(buf);
  EXPECT_EQ(reader.read<std::int32_t>(), -7);
  EXPECT_EQ(reader.read_string(), "cursor");
  EXPECT_EQ(reader.read_vector<float>(), (std::vector<float>{1.5f, 2.5f}));
  EXPECT_EQ(reader.remaining(), 0u);
  // The source buffer's own read position is untouched by the cursor.
  EXPECT_EQ(buf.read<std::int32_t>(), -7);
}

TEST(ByteReader, TracksPositionAndThrowsPastEnd) {
  vu::ByteBuffer buf;
  buf.write<std::uint16_t>(9);
  vu::ByteReader reader(buf);
  EXPECT_EQ(reader.pos(), 0u);
  (void)reader.read<std::uint16_t>();
  EXPECT_EQ(reader.pos(), sizeof(std::uint16_t));
  EXPECT_THROW((void)reader.read<std::uint16_t>(), std::out_of_range);
}

TEST(ByteReader, CorruptLengthPrefixThrows) {
  vu::ByteBuffer buf;
  buf.write<std::uint64_t>(1ull << 40);  // vector count with no payload
  vu::ByteReader reader(buf);
  EXPECT_THROW((void)reader.read_vector<double>(), std::out_of_range);
}

TEST(ByteReader, StartsAtBufferReadPosition) {
  vu::ByteBuffer buf;
  buf.write<std::int32_t>(1);
  buf.write<std::int32_t>(2);
  (void)buf.read<std::int32_t>();  // advance the buffer's own cursor
  vu::ByteReader reader(buf);
  EXPECT_EQ(reader.read<std::int32_t>(), 2);
  EXPECT_EQ(reader.remaining(), 0u);
}

// ---------------------------------------------------------------------------
// TaskPool / Future
// ---------------------------------------------------------------------------

TEST(TaskPool, SubmitReturnsValues) {
  vu::TaskPool pool(2, "test.pool.values");
  std::vector<vu::Future<int>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(TaskPool, ZeroThreadsRunsInline) {
  vu::TaskPool pool(0, "test.pool.inline");
  std::thread::id task_thread;
  auto future = pool.submit([&] {
    task_thread = std::this_thread::get_id();
    return 1;
  });
  EXPECT_TRUE(future.ready());  // executed during submit
  EXPECT_EQ(task_thread, std::this_thread::get_id());
  EXPECT_EQ(future.get(), 1);
}

TEST(TaskPool, ExceptionsPropagateThroughGet) {
  vu::TaskPool pool(1, "test.pool.throw");
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)future.get(), std::runtime_error);
}

TEST(TaskPool, CancelQueuedTaskDropsCallable) {
  vu::TaskPool pool(1, "test.pool.cancel");
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Occupy the single thread so the next submit stays queued.
  auto blocker = pool.submit([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return 0;
  });
  // Track callable destruction: cancel must release captured resources
  // immediately (the DMS in-flight token pattern relies on this).
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  auto queued = pool.submit([&ran, token] {
    ++ran;
    return *token;
  });
  token.reset();

  EXPECT_TRUE(queued.cancel());
  EXPECT_TRUE(queued.ready());
  EXPECT_TRUE(watch.expired());  // callable (and its captures) dropped
  EXPECT_THROW((void)queued.get(), vu::TaskCancelled);

  release = true;
  EXPECT_EQ(blocker.get(), 0);
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskPool, RunningTaskCannotBeCancelled) {
  vu::TaskPool pool(1, "test.pool.nocancel");
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto future = pool.submit([&] {
    started = true;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return 7;
  });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_FALSE(future.cancel());
  release = true;
  EXPECT_EQ(future.get(), 7);
}

TEST(TaskPool, CloseCancelsQueuedAndRejectsNew) {
  vu::TaskPool pool(1, "test.pool.close");
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    started = true;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return 0;
  });
  // Park the queued task behind the running blocker so close() finds it
  // still queued; release the blocker only once close() is joining.
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto queued = pool.submit([] { return 1; });
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release = true;
  });
  pool.close();
  releaser.join();
  EXPECT_THROW((void)queued.get(), vu::TaskCancelled);
  // Post-close submissions settle immediately as cancelled.
  auto rejected = pool.submit([] { return 2; });
  EXPECT_TRUE(rejected.ready());
  EXPECT_THROW((void)rejected.get(), vu::TaskCancelled);
  EXPECT_EQ(blocker.get(), 0);
}

TEST(TaskPool, FutureWaitForAndReadyValue) {
  auto ready = vu::Future<std::string>::ready_value("hit");
  EXPECT_TRUE(ready.valid());
  EXPECT_TRUE(ready.ready());
  EXPECT_TRUE(ready.wait_for(std::chrono::nanoseconds(0)));
  EXPECT_EQ(ready.get(), "hit");

  vu::Future<int> invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_FALSE(invalid.wait_for(std::chrono::milliseconds(1)));
  EXPECT_THROW((void)invalid.get(), std::logic_error);

  vu::TaskPool pool(1, "test.pool.wait");
  std::atomic<bool> release{false};
  auto slow = pool.submit([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return 3;
  });
  EXPECT_FALSE(slow.wait_for(std::chrono::milliseconds(2)));
  release = true;
  EXPECT_TRUE(slow.wait_for(std::chrono::seconds(10)));
  EXPECT_EQ(slow.get(), 3);
}

// ---------------------------------------------------------------------------
// PhaseTimer listener exception safety
// ---------------------------------------------------------------------------

TEST(PhaseTimer, ThrowingListenerDoesNotCorruptAccounting) {
  vu::PhaseTimer timer;
  int calls = 0;
  timer.set_listener([&](const std::string&, const std::string&) {
    ++calls;
    throw std::runtime_error("listener bug");
  });

  EXPECT_NO_THROW(timer.enter("compute"));
  EXPECT_EQ(timer.current(), "compute");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_NO_THROW(timer.enter("read"));
  EXPECT_EQ(timer.current(), "read");
  EXPECT_GT(timer.seconds("compute"), 0.0);
  EXPECT_NO_THROW(timer.reset());
  EXPECT_EQ(timer.current(), "");
  EXPECT_EQ(timer.total(), 0.0);
  EXPECT_GE(calls, 3);
}

TEST(PhaseTimer, ListenerSeesTransitionPair) {
  vu::PhaseTimer timer;
  std::vector<std::pair<std::string, std::string>> transitions;
  timer.set_listener([&](const std::string& prev, const std::string& next) {
    transitions.emplace_back(prev, next);
  });
  timer.enter("a");
  timer.enter("b");
  timer.stop();
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0], (std::pair<std::string, std::string>{"", "a"}));
  EXPECT_EQ(transitions[1], (std::pair<std::string, std::string>{"a", "b"}));
  EXPECT_EQ(transitions[2], (std::pair<std::string, std::string>{"b", ""}));
}
