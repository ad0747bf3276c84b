#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "comm/client_link.hpp"
#include "comm/communicator.hpp"
#include "comm/transport.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace vc = vira::comm;
namespace vu = vira::util;

namespace {

vu::ByteBuffer make_payload(const std::string& text) {
  vu::ByteBuffer buf;
  buf.write_string(text);
  return buf;
}

std::string read_payload(vu::ByteBuffer& buf) { return buf.read_string(); }

/// Runs `body(rank, comm)` on `size` threads over a shared InProcTransport.
void run_ranks(int size, const std::function<void(int, vc::Communicator&)>& body) {
  auto transport = std::make_shared<vc::InProcTransport>(size);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size));
  for (int rank = 0; rank < size; ++rank) {
    threads.emplace_back([&, rank] {
      vc::Communicator comm(transport, rank);
      body(rank, comm);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// InProcTransport
// ---------------------------------------------------------------------------

TEST(InProcTransport, DeliversToAddressedEndpoint) {
  vc::InProcTransport transport(3);
  vc::Message msg;
  msg.source = 0;
  msg.tag = 7;
  msg.payload = make_payload("hello");
  transport.send(2, std::move(msg));

  auto received = transport.recv(2, std::chrono::milliseconds(100));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->source, 0);
  EXPECT_EQ(received->tag, 7);
  EXPECT_EQ(read_payload(received->payload), "hello");
  EXPECT_EQ(received->body, nullptr);

  // A body crosses by reference and counts toward comm.bytes_sent.
  auto& bytes_sent = vira::obs::Registry::instance().counter("comm.bytes_sent");
  const auto before = bytes_sent.value();
  vc::Message with_body;
  with_body.source = 1;
  with_body.payload = make_payload("header");
  with_body.body = std::make_shared<const vu::ByteBuffer>(make_payload("block bytes"));
  const auto body = with_body.body;
  const std::size_t bytes = with_body.payload.size() + body->size();
  EXPECT_EQ(with_body.byte_size(), bytes);
  transport.send(2, std::move(with_body));
  EXPECT_EQ(bytes_sent.value() - before, bytes);
  received = transport.recv(2, std::chrono::milliseconds(100));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(read_payload(received->payload), "header");
  EXPECT_EQ(received->body.get(), body.get()) << "the receiver holds the sender's allocation";

  EXPECT_FALSE(transport.recv(0, std::chrono::milliseconds(1)).has_value());
}

TEST(InProcTransport, RejectsBadEndpoints) {
  vc::InProcTransport transport(2);
  vc::Message msg;
  EXPECT_THROW(transport.send(5, std::move(msg)), std::out_of_range);
  EXPECT_THROW((void)transport.recv(-1, std::chrono::milliseconds(1)), std::out_of_range);
  EXPECT_THROW(vc::InProcTransport(0), std::invalid_argument);
}

TEST(InProcTransport, ShutdownReleasesReceivers) {
  auto transport = std::make_shared<vc::InProcTransport>(1);
  std::thread receiver([&] {
    const auto msg = transport->recv(0, std::chrono::milliseconds(5000));
    EXPECT_FALSE(msg.has_value());
  });
  transport->shutdown();
  receiver.join();
  EXPECT_TRUE(transport->is_shut_down());
}

TEST(InProcTransport, SendAfterShutdownIsDroppedSilently) {
  // Teardown race contract (transport.hpp): a send that loses the race with
  // shutdown() is dropped, not an error — senders on other threads must not
  // have to synchronize with the teardown path.
  vc::InProcTransport transport(2);
  transport.shutdown();
  EXPECT_TRUE(transport.is_shut_down());
  vc::Message msg;
  msg.source = 0;
  msg.tag = 1;
  msg.payload = make_payload("too late");
  EXPECT_NO_THROW(transport.send(1, std::move(msg)));
  EXPECT_FALSE(transport.recv(1, std::chrono::milliseconds(20)).has_value());
}

TEST(InProcTransport, SendsRacingShutdownNeverThrowOrHang) {
  // Hammer send() from several threads while shutdown() lands mid-stream.
  // Every send must return cleanly (delivered or dropped) and receivers
  // drain to end-of-stream.
  auto transport = std::make_shared<vc::InProcTransport>(3);
  std::vector<std::thread> senders;
  senders.reserve(2);
  for (int s = 0; s < 2; ++s) {
    senders.emplace_back([transport, s] {
      for (int i = 0; i < 2000; ++i) {
        vc::Message msg;
        msg.source = s;
        msg.tag = i;
        msg.payload = make_payload("x");
        EXPECT_NO_THROW(transport->send(2, std::move(msg)));
      }
    });
  }
  std::atomic<int> received{0};
  std::thread receiver([transport, &received] {
    while (transport->recv(2, std::chrono::milliseconds(50)).has_value()) {
      received.fetch_add(1);
    }
  });
  // Shut down mid-stream: wait for the exchange to be demonstrably under
  // way (not a fixed sleep — on a loaded machine 2ms might be before the
  // first send, which would test nothing).
  EXPECT_TRUE(vira::test::eventually([&] { return received.load() >= 16; }));
  transport->shutdown();
  for (auto& t : senders) {
    t.join();
  }
  receiver.join();
  EXPECT_TRUE(transport->is_shut_down());
}

// ---------------------------------------------------------------------------
// Communicator point-to-point
// ---------------------------------------------------------------------------

TEST(Communicator, SendRecvWithTagMatching) {
  run_ranks(2, [](int rank, vc::Communicator& comm) {
    if (rank == 0) {
      comm.send(1, 5, make_payload("tag5"));
      comm.send(1, 9, make_payload("tag9"));
    } else {
      // Receive out of order: tag 9 first, then tag 5 from the buffer.
      auto msg9 = comm.recv(0, 9);
      EXPECT_EQ(read_payload(msg9.payload), "tag9");
      auto msg5 = comm.recv(0, 5);
      EXPECT_EQ(read_payload(msg5.payload), "tag5");
    }
  });
}

TEST(Communicator, AnySourceAndAnyTagWildcards) {
  run_ranks(3, [](int rank, vc::Communicator& comm) {
    if (rank == 0) {
      int seen = 0;
      for (int n = 0; n < 2; ++n) {
        auto msg = comm.recv(vc::kAnySource, vc::kAnyTag);
        seen += msg.source;
      }
      EXPECT_EQ(seen, 3);  // 1 + 2
    } else {
      comm.send(0, rank * 10, make_payload("x"));
    }
  });
}

TEST(Communicator, TryRecvTimesOutCleanly) {
  auto transport = std::make_shared<vc::InProcTransport>(1);
  vc::Communicator comm(transport, 0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(comm.try_recv(vc::kAnySource, 1, std::chrono::milliseconds(30)).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST(Communicator, ProbePeeksWithoutConsuming) {
  run_ranks(2, [](int rank, vc::Communicator& comm) {
    if (rank == 0) {
      comm.send(1, 3, make_payload("peek"));
    } else {
      std::optional<std::pair<int, int>> header;
      while (!header) {
        header = comm.probe(std::chrono::milliseconds(50));
      }
      EXPECT_EQ(header->first, 0);
      EXPECT_EQ(header->second, 3);
      auto msg = comm.recv(0, 3);
      EXPECT_EQ(read_payload(msg.payload), "peek");
    }
  });
}

TEST(Communicator, NegativeUserTagRejected) {
  auto transport = std::make_shared<vc::InProcTransport>(2);
  vc::Communicator comm(transport, 0);
  EXPECT_THROW(comm.send(1, -3, {}), std::invalid_argument);
}

TEST(Communicator, RecvThrowsAfterShutdown) {
  auto transport = std::make_shared<vc::InProcTransport>(1);
  vc::Communicator comm(transport, 0);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    transport->shutdown();
  });
  EXPECT_THROW((void)comm.recv(), vc::TransportClosed);
  closer.join();
}

TEST(Communicator, FifoPerSenderPair) {
  run_ranks(2, [](int rank, vc::Communicator& comm) {
    constexpr int kCount = 200;
    if (rank == 0) {
      for (int n = 0; n < kCount; ++n) {
        vu::ByteBuffer buf;
        buf.write<int>(n);
        comm.send(1, 1, std::move(buf));
      }
    } else {
      for (int n = 0; n < kCount; ++n) {
        auto msg = comm.recv(0, 1);
        EXPECT_EQ(msg.payload.read<int>(), n);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Communicator collectives
// ---------------------------------------------------------------------------

TEST(Communicator, BarrierSynchronizesRepeatedly) {
  std::atomic<int> phase_counter{0};
  run_ranks(4, [&](int rank, vc::Communicator& comm) {
    for (int round = 0; round < 5; ++round) {
      if (rank == round % 4) {
        // Stagger one rank to provoke the fast-peer overtaking scenario.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      comm.barrier();
      phase_counter.fetch_add(1);
      comm.barrier();
      EXPECT_EQ(phase_counter.load() % 4, 0) << "round " << round;
    }
  });
  EXPECT_EQ(phase_counter.load(), 20);
}

TEST(Communicator, BroadcastDeliversRootPayload) {
  run_ranks(3, [](int rank, vc::Communicator& comm) {
    vu::ByteBuffer payload;
    if (rank == 1) {
      payload = make_payload("from-root");
    }
    auto result = comm.broadcast(std::move(payload), 1);
    EXPECT_EQ(read_payload(result), "from-root");
  });
}

TEST(Communicator, GatherCollectsByRank) {
  run_ranks(4, [](int rank, vc::Communicator& comm) {
    vu::ByteBuffer mine;
    mine.write<int>(rank * rank);
    auto gathered = comm.gather(std::move(mine), 0);
    if (rank == 0) {
      ASSERT_EQ(gathered.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(r)].read<int>(), r * r);
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST(Communicator, ReduceSumsDoubles) {
  run_ranks(4, [](int rank, vc::Communicator& comm) {
    const double result = comm.reduce_sum(static_cast<double>(rank + 1), 2);
    if (rank == 2) {
      EXPECT_DOUBLE_EQ(result, 10.0);
    }
  });
}

TEST(Communicator, ConsecutiveGathersDoNotBleed) {
  run_ranks(3, [](int rank, vc::Communicator& comm) {
    for (int round = 0; round < 10; ++round) {
      vu::ByteBuffer mine;
      mine.write<int>(round * 100 + rank);
      auto gathered = comm.gather(std::move(mine), 0);
      if (rank == 0) {
        for (int r = 0; r < 3; ++r) {
          EXPECT_EQ(gathered[static_cast<std::size_t>(r)].read<int>(), round * 100 + r);
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// ClientLink (in-process, and TCP: client TcpLink ↔ server net::EventLoop)
// ---------------------------------------------------------------------------

class ClientLinkTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "inproc") {
      auto [a, b] = vc::make_inproc_link_pair();
      client_ = a;
      server_ = b;
    } else {
      loop_ = std::make_unique<vira::net::EventLoop>(0);
      auto accepted = std::make_shared<std::promise<std::shared_ptr<vc::ClientLink>>>();
      auto server_future = accepted->get_future();
      loop_->set_on_accept(
          [accepted](std::shared_ptr<vc::ClientLink> link) { accepted->set_value(std::move(link)); });
      loop_->start();
      client_ = vc::tcp_connect("127.0.0.1", loop_->port());
      ASSERT_EQ(server_future.wait_for(std::chrono::seconds(2)), std::future_status::ready);
      server_ = server_future.get();
    }
  }

  /// Declared first so it is destroyed last: the server link refers to it.
  std::unique_ptr<vira::net::EventLoop> loop_;
  std::shared_ptr<vc::ClientLink> client_;
  std::shared_ptr<vc::ClientLink> server_;
};

TEST_P(ClientLinkTest, RoundTripsFrames) {
  vc::Message msg;
  msg.source = 42;
  msg.tag = 7;
  msg.payload = make_payload("request");
  client_->send(std::move(msg));

  auto received = server_->recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->source, 42);
  EXPECT_EQ(received->tag, 7);
  EXPECT_EQ(read_payload(received->payload), "request");

  vc::Message reply;
  reply.tag = 8;
  reply.payload = make_payload("response");
  server_->send(std::move(reply));
  auto back = client_->recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(read_payload(back->payload), "response");
}

TEST_P(ClientLinkTest, LargePayloadSurvives) {
  std::vector<float> big(200000);
  std::iota(big.begin(), big.end(), 0.0f);
  vc::Message msg;
  msg.tag = 1;
  msg.payload.write_vector(big);
  client_->send(std::move(msg));

  auto received = server_->recv(std::chrono::milliseconds(5000));
  ASSERT_TRUE(received.has_value());
  const auto restored = received->payload.read_vector<float>();
  ASSERT_EQ(restored.size(), big.size());
  EXPECT_EQ(restored[123456], 123456.0f);
}

TEST_P(ClientLinkTest, BodyPassesInProcessAndSocketLinksRefuseIt) {
  const auto body = std::make_shared<const vu::ByteBuffer>(make_payload("body"));
  const auto message = [&](int tag, const char* text, bool with_body) {
    vc::Message msg;
    msg.tag = tag;
    msg.payload = make_payload(text);
    if (with_body) {
      msg.body = body;
    }
    return msg;
  };
  if (GetParam() == "inproc") {
    client_->send(message(1, "header", true));
    auto received = server_->recv(std::chrono::milliseconds(2000));
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(read_payload(received->payload), "header");
    EXPECT_EQ(received->body.get(), body.get());
    return;
  }
  // A frame has no place for a body: the TCP client and the event loop
  // both refuse one instead of dropping its bytes, and keep serving.
  EXPECT_THROW(client_->send(message(1, "header", true)), std::invalid_argument);
  EXPECT_THROW(server_->send(message(2, "header", true)), std::invalid_argument);
  EXPECT_FALSE(client_->closed());
  EXPECT_FALSE(server_->closed());
  client_->send(message(3, "after", false));
  auto received = server_->recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->tag, 3);
  EXPECT_EQ(read_payload(received->payload), "after");
  EXPECT_EQ(received->body, nullptr);
  server_->send(message(4, "reply", false));
  auto back = client_->recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tag, 4);
  EXPECT_EQ(read_payload(back->payload), "reply");
}

TEST_P(ClientLinkTest, RecvTimesOutWithoutTraffic) {
  EXPECT_FALSE(server_->recv(std::chrono::milliseconds(20)).has_value());
}

TEST_P(ClientLinkTest, CloseUnblocksPeer) {
  client_->close();
  // The server side eventually observes end-of-stream as nullopt.
  auto msg = server_->recv(std::chrono::milliseconds(2000));
  EXPECT_FALSE(msg.has_value());
}

TEST_P(ClientLinkTest, ManyFramesKeepOrder) {
  constexpr int kCount = 500;
  std::thread sender([&] {
    for (int n = 0; n < kCount; ++n) {
      vc::Message msg;
      msg.tag = n;
      msg.payload.write<int>(n);
      client_->send(std::move(msg));
    }
  });
  for (int n = 0; n < kCount; ++n) {
    auto msg = server_->recv(std::chrono::milliseconds(2000));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->tag, n);
    EXPECT_EQ(msg->payload.read<int>(), n);
  }
  sender.join();
}

INSTANTIATE_TEST_SUITE_P(Transports, ClientLinkTest, ::testing::Values("inproc", "tcp"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Stress
// ---------------------------------------------------------------------------

TEST(Communicator, EightRankAllToAll) {
  constexpr int kRanks = 8;
  constexpr int kMessages = 50;
  run_ranks(kRanks, [](int rank, vc::Communicator& comm) {
    // Everyone sends kMessages to every other rank, then receives the same.
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == rank) {
        continue;
      }
      for (int n = 0; n < kMessages; ++n) {
        vu::ByteBuffer buf;
        buf.write<int>(rank * 1000 + n);
        comm.send(peer, /*tag=*/n % 5, std::move(buf));
      }
    }
    int received = 0;
    long long sum = 0;
    while (received < (kRanks - 1) * kMessages) {
      auto msg = comm.recv(vc::kAnySource, vc::kAnyTag);
      sum += msg.payload.read<int>() % 1000;
      ++received;
    }
    // Each peer contributed sum over n of n = kMessages*(kMessages-1)/2.
    EXPECT_EQ(sum, static_cast<long long>(kRanks - 1) * kMessages * (kMessages - 1) / 2);
  });
}

TEST(Communicator, MixedCollectivesAndPointToPoint) {
  run_ranks(4, [](int rank, vc::Communicator& comm) {
    for (int round = 0; round < 5; ++round) {
      // p2p ring exchange...
      const int next = (rank + 1) % 4;
      const int prior = (rank + 3) % 4;
      vu::ByteBuffer buf;
      buf.write<int>(rank + round);
      comm.send(next, 100 + round, std::move(buf));
      auto msg = comm.recv(prior, 100 + round);
      EXPECT_EQ(msg.payload.read<int>(), prior + round);
      // ...interleaved with collectives.
      const double total = comm.reduce_sum(1.0, 0);
      if (rank == 0) {
        EXPECT_DOUBLE_EQ(total, 4.0);
      }
      comm.barrier();
    }
  });
}

// ---------------------------------------------------------------------------
// Collectives across rank counts (parameterized)
// ---------------------------------------------------------------------------

class CollectiveSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweepTest, GatherBroadcastReduceAgree) {
  const int ranks = GetParam();
  run_ranks(ranks, [ranks](int rank, vc::Communicator& comm) {
    // Gather rank squares at the last rank.
    vu::ByteBuffer mine;
    mine.write<int>(rank * rank);
    auto gathered = comm.gather(std::move(mine), ranks - 1);
    if (rank == ranks - 1) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(r)].read<int>(), r * r);
      }
    }
    // Broadcast a token from rank 0.
    vu::ByteBuffer token;
    if (rank == 0) {
      token.write<int>(ranks * 11);
    }
    auto result = comm.broadcast(std::move(token), 0);
    EXPECT_EQ(result.read<int>(), ranks * 11);
    // Reduce: Σ r = n(n-1)/2.
    const double sum = comm.reduce_sum(static_cast<double>(rank), 0);
    if (rank == 0) {
      EXPECT_DOUBLE_EQ(sum, ranks * (ranks - 1) / 2.0);
    }
    comm.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSweepTest, ::testing::Values(2, 3, 5, 8),
                         [](const auto& info) {
                           return "ranks" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Multi-thread receive on one rank (the sharded-DMS wiring: worker loop,
// heartbeat poller and peer-transfer service all share a communicator)
// ---------------------------------------------------------------------------

TEST(Communicator, MessageStolenBySiblingThreadStillReachesItsAddressee) {
  // A thread polling for tag A pulls a tag-B message off the transport and
  // buffers it in the unexpected-message queue. The tag-B receiver must get
  // it from there — a stolen message may never be lost.
  auto transport = std::make_shared<vc::InProcTransport>(2);
  vc::Communicator sender(transport, 0);
  vc::Communicator receiver(transport, 1);

  sender.send(1, /*tag=*/7, make_payload("stolen"));
  // Poll for the wrong tag until the pump has definitely buffered tag 7.
  ASSERT_TRUE(vira::test::eventually([&] {
    EXPECT_FALSE(receiver.try_recv(vc::kAnySource, /*tag=*/99, std::chrono::milliseconds(1)));
    return receiver.probe(std::chrono::milliseconds(0)).has_value();
  }));
  // Now a zero-timeout receive must find it without touching the transport.
  auto msg = receiver.try_recv(0, 7, std::chrono::milliseconds(0));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(read_payload(msg->payload), "stolen");
}

TEST(Communicator, ConcurrentPumpingSiblingDoesNotStarveAReceiver) {
  // Regression: try_recv used to park in a single transport wait as long as
  // its whole timeout. With a sibling thread pumping the same rank, the
  // sibling buffers the caller's message and the caller only noticed at its
  // deadline — long enough to trip the scheduler's idle-grace watchdog. The
  // pumping thread now hands every message it takes to the waiting
  // receivers at once (the exact instant is pinned under the virtual clock
  // by DstEventWaitTest.MessagePumpedBySiblingReachesItsAddresseeAtDelivery).
  auto transport = std::make_shared<vc::InProcTransport>(2);
  vc::Communicator sender(transport, 0);
  vc::Communicator receiver(transport, 1);

  std::atomic<bool> stop{false};
  std::thread sibling([&] {
    while (!stop.load()) {
      (void)receiver.try_recv(vc::kAnySource, /*tag=*/99, std::chrono::milliseconds(1));
    }
  });

  for (int round = 0; round < 20; ++round) {
    sender.send(1, /*tag=*/7, make_payload("round"));
    // The worker-loop shape: a timeout much longer than the delivery should
    // take. The sibling races us to the transport on every round.
    auto msg = receiver.try_recv(0, 7, std::chrono::seconds(5));
    ASSERT_TRUE(msg.has_value()) << "round " << round;
    EXPECT_EQ(read_payload(msg->payload), "round");
  }
  stop.store(true);
  sibling.join();
}

TEST(Communicator, TagSetReceiveTakesTheFirstMatchingMessageInArrivalOrder) {
  // The peer-service thread's shape: one wait covers two tags, and other
  // tags stay buffered for their own receivers.
  auto transport = std::make_shared<vc::InProcTransport>(2);
  vc::Communicator sender(transport, 0);
  vc::Communicator receiver(transport, 1);
  sender.send(1, /*tag=*/5, make_payload("other"));
  sender.send(1, /*tag=*/4, make_payload("first"));
  sender.send(1, /*tag=*/3, make_payload("second"));

  auto first = receiver.try_recv(vc::kAnySource, {3, 4}, std::chrono::seconds(5));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(read_payload(first->payload), "first");
  auto second = receiver.try_recv(vc::kAnySource, {3, 4}, std::chrono::seconds(5));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(read_payload(second->payload), "second");
  EXPECT_FALSE(receiver.try_recv(vc::kAnySource, {3, 4}, std::chrono::milliseconds(0)));
  auto other = receiver.try_recv(0, 5, std::chrono::milliseconds(0));
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(read_payload(other->payload), "other");
}
