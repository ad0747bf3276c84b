#include "comm/communicator.hpp"

#include <algorithm>

namespace vira::comm {

namespace {
// Bound on one transport wait of the pumping thread. It adds no latency —
// any message for this rank ends the wait — and only keeps a wait with no
// deadline from handing the transport a timeout it cannot represent.
constexpr auto kMaxPumpWait = std::chrono::seconds(1);
// Messages moved per pump: one flooded pump must not hold the receivers off
// the unexpected-message queue indefinitely.
constexpr int kDrainBound = 1024;
}  // namespace

Communicator::Communicator(std::shared_ptr<Transport> transport, int rank)
    : transport_(std::move(transport)), rank_(rank) {
  if (rank_ < 0 || rank_ >= transport_->size()) {
    throw std::out_of_range("Communicator: rank outside transport");
  }
}

void Communicator::send(int dest, int tag, util::ByteBuffer payload, util::SharedBytes body) {
  if (tag < 0) {
    throw std::invalid_argument("Communicator::send: negative tags are reserved");
  }
  send_internal(dest, tag, std::move(payload), std::move(body));
}

void Communicator::send_internal(int dest, int tag, util::ByteBuffer payload,
                                 util::SharedBytes body) {
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload = std::move(payload);
  msg.body = std::move(body);
  transport_->send(dest, std::move(msg));
}

std::vector<Message> Communicator::pump(util::Clock::TimePoint deadline) {
  // Drain everything already delivered before considering a timed wait.
  // Pulling a single message per call capped the mailbox drain rate at one
  // message per receive under fan-in load (every worker streaming fragments
  // at rank 0), and the transport queue backlogged by seconds.
  std::vector<Message> mail;
  const auto drain = [&] {
    while (mail.size() < static_cast<std::size_t>(kDrainBound)) {
      auto msg = transport_->recv(rank_, std::chrono::milliseconds(0));
      if (!msg) {
        return;
      }
      mail.push_back(std::move(*msg));
    }
  };
  drain();
  const auto now = util::clock_now();
  if (mail.empty() && now < deadline) {
    // Ceil, not truncate: with a sub-millisecond clock (virtual time), a
    // fractional remainder truncated to 0ms would make the wait return at
    // once — a busy spin that can never reach the deadline.
    const auto wait = deadline == util::Clock::TimePoint::max()
                          ? std::chrono::milliseconds(kMaxPumpWait)
                          : std::min<std::chrono::milliseconds>(
                                std::chrono::ceil<std::chrono::milliseconds>(deadline - now),
                                kMaxPumpWait);
    if (auto msg = transport_->recv(rank_, wait)) {
      mail.push_back(std::move(*msg));
      drain();
    }
  }
  return mail;
}

std::optional<Message> Communicator::receive(int source, std::initializer_list<int> tags,
                                             util::Clock::TimePoint deadline, bool consume) {
  const auto matches = [&](const Message& msg) {
    if (source != kAnySource && msg.source != source) {
      return false;
    }
    return std::any_of(tags.begin(), tags.end(),
                       [&](int tag) { return tag == kAnyTag || tag == msg.tag; });
  };
  std::unique_lock<std::mutex> lock(mutex_);
  bool pumped = false;
  while (true) {
    const auto it = std::find_if(pending_.begin(), pending_.end(), matches);
    if (it != pending_.end()) {
      Message msg = consume ? std::move(*it) : *it;
      if (consume) {
        pending_.erase(it);
      }
      return msg;
    }
    const bool expired = util::clock_now() >= deadline;
    if (pumping_) {
      // Another thread of this rank waits on the transport and hands over
      // whatever it receives; wait for that hand-over.
      if (expired) {
        return std::nullopt;
      }
      const auto seen = handovers_;
      (void)mail_cv_.wait_until(lock, deadline, [&] { return handovers_ != seen; });
      continue;
    }
    if (expired && pumped) {
      return std::nullopt;
    }
    // Become the pumping thread. Even an expired zero-timeout poll pumps
    // once without blocking: a poller that never touches the transport can
    // starve a backlogged queue while reporting "nothing to do".
    pumping_ = true;
    lock.unlock();
    std::vector<Message> mail;
    try {
      mail = pump(deadline);
    } catch (...) {
      lock.lock();
      pumping_ = false;
      ++handovers_;
      mail_cv_.notify_all();
      throw;
    }
    lock.lock();
    pumping_ = false;
    ++handovers_;
    for (auto& msg : mail) {
      pending_.push_back(std::move(msg));
    }
    mail_cv_.notify_all();
    pumped = true;
    if (mail.empty() && transport_->is_shut_down()) {
      throw TransportClosed();
    }
  }
}

Message Communicator::recv(int source, int tag) {
  return *receive(source, {tag}, util::Clock::TimePoint::max(), /*consume=*/true);
}

std::optional<Message> Communicator::try_recv(int source, int tag,
                                              std::chrono::milliseconds timeout) {
  // The deadline is on the injectable clock: under a virtual clock the
  // transport's waits advance virtual time, so it must be measured on the
  // same timeline.
  return receive(source, {tag}, util::clock_deadline(timeout), /*consume=*/true);
}

std::optional<Message> Communicator::try_recv(int source, std::initializer_list<int> tags,
                                              std::chrono::milliseconds timeout) {
  return receive(source, tags, util::clock_deadline(timeout), /*consume=*/true);
}

std::optional<std::pair<int, int>> Communicator::probe(std::chrono::milliseconds timeout) {
  auto msg = receive(kAnySource, {kAnyTag}, util::clock_deadline(timeout), /*consume=*/false);
  if (!msg) {
    return std::nullopt;
  }
  return std::make_pair(msg->source, msg->tag);
}

void Communicator::barrier() {
  constexpr int kRoot = 0;
  util::ByteBuffer token;
  if (rank_ == kRoot) {
    // Receive from each specific peer: per-pair FIFO then guarantees a
    // message from barrier N+1 can never be mistaken for barrier N.
    for (int peer = 1; peer < size(); ++peer) {
      (void)recv(peer, kTagBarrierArrive);
    }
    for (int peer = 1; peer < size(); ++peer) {
      send_internal(peer, kTagBarrierRelease, util::ByteBuffer());
    }
  } else {
    send_internal(kRoot, kTagBarrierArrive, std::move(token));
    (void)recv(kRoot, kTagBarrierRelease);
  }
}

util::ByteBuffer Communicator::broadcast(util::ByteBuffer payload, int root) {
  if (rank_ == root) {
    for (int peer = 0; peer < size(); ++peer) {
      if (peer != root) {
        util::ByteBuffer copy = payload;
        send_internal(peer, kTagBroadcast, std::move(copy));
      }
    }
    return payload;
  }
  return recv(root, kTagBroadcast).payload;
}

std::vector<util::ByteBuffer> Communicator::gather(util::ByteBuffer payload, int root) {
  if (rank_ != root) {
    send_internal(root, kTagGather, std::move(payload));
    return {};
  }
  std::vector<util::ByteBuffer> results(static_cast<std::size_t>(size()));
  results[static_cast<std::size_t>(root)] = std::move(payload);
  // Per-source receives keep successive gather rounds separated (FIFO per
  // pair); ANY_SOURCE could steal a fast peer's next-round contribution.
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == root) {
      continue;
    }
    Message msg = recv(peer, kTagGather);
    results[static_cast<std::size_t>(peer)] = std::move(msg.payload);
  }
  return results;
}

double Communicator::reduce_sum(double value, int root) {
  if (rank_ != root) {
    util::ByteBuffer payload;
    payload.write<double>(value);
    send_internal(root, kTagReduce, std::move(payload));
    return value;
  }
  double sum = value;
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == root) {
      continue;
    }
    Message msg = recv(peer, kTagReduce);
    sum += msg.payload.read<double>();
  }
  return sum;
}

}  // namespace vira::comm
