#include "comm/client_link.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "util/blocking_queue.hpp"

namespace vira::comm {

void WireHello::serialize(util::ByteBuffer& out) const {
  out.write<std::uint32_t>(magic);
  out.write<std::uint32_t>(version);
  out.write<std::uint32_t>(features);
  // Reserved, always 0. Clients built while wire compression existed read a
  // codec byte here; keeping it lets them parse the ack.
  out.write<std::uint8_t>(0);
}

WireHello WireHello::deserialize(util::ByteBuffer& in) {
  WireHello hello;
  hello.magic = in.read<std::uint32_t>();
  hello.version = in.read<std::uint32_t>();
  hello.features = in.read<std::uint32_t>();
  return hello;
}

// ---------------------------------------------------------------------------
// In-process pair
// ---------------------------------------------------------------------------

namespace {

class InProcLink final : public ClientLink {
 public:
  using Queue = util::BlockingQueue<Message>;

  InProcLink(std::shared_ptr<Queue> outgoing, std::shared_ptr<Queue> incoming,
             std::function<void()> on_send)
      : outgoing_(std::move(outgoing)),
        incoming_(std::move(incoming)),
        on_send_(std::move(on_send)) {}

  void send(Message msg) override {
    if (outgoing_->push(std::move(msg)) && on_send_) {
      on_send_();
    }
  }

  std::optional<Message> recv(std::chrono::milliseconds timeout) override {
    return incoming_->pop_for(timeout);
  }

  void close() override {
    outgoing_->close();
    incoming_->close();
  }

  bool closed() const override { return incoming_->closed(); }

 private:
  std::shared_ptr<Queue> outgoing_;
  std::shared_ptr<Queue> incoming_;
  std::function<void()> on_send_;
};

}  // namespace

std::pair<std::shared_ptr<ClientLink>, std::shared_ptr<ClientLink>> make_inproc_link_pair(
    std::function<void()> on_send) {
  auto a_to_b = std::make_shared<InProcLink::Queue>();
  auto b_to_a = std::make_shared<InProcLink::Queue>();
  return {std::make_shared<InProcLink>(a_to_b, b_to_a, std::move(on_send)),
          std::make_shared<InProcLink>(b_to_a, a_to_b, nullptr)};
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

namespace {

/// Frame layout: [i32 source][i32 tag][u64 payload bytes][payload].
class TcpLink final : public ClientLink {
 public:
  explicit TcpLink(int fd) : fd_(fd) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpLink() override {
    close();
    // The fd itself is released only here, when no other thread can still
    // be blocked in recv()/send() on it (the owner joined its consumers).
    ::close(fd_);
  }

  void send(Message msg) override {
    if (msg.body) {
      // The frame has no place for a body; refused, not silently dropped.
      throw std::invalid_argument("TcpLink::send: a socket link carries no message body");
    }
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (closed_) {
      return;
    }
    const std::int32_t source = msg.source;
    const std::int32_t tag = msg.tag;
    const std::uint64_t size = msg.payload.size();
    if (!write_all(&source, sizeof(source)) || !write_all(&tag, sizeof(tag)) ||
        !write_all(&size, sizeof(size)) || !write_all(msg.payload.data(), size)) {
      do_close();
    }
  }

  std::optional<Message> recv(std::chrono::milliseconds timeout) override {
    if (closed_.load()) {
      return std::nullopt;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (ready <= 0) {
      // EINTR while waiting reads as a timeout; callers poll again.
      return std::nullopt;
    }
    std::int32_t source = 0;
    std::int32_t tag = 0;
    std::uint64_t size = 0;
    if (!read_all(&source, sizeof(source)) || !read_all(&tag, sizeof(tag)) ||
        !read_all(&size, sizeof(size))) {
      do_close();
      return std::nullopt;
    }
    if (size > (1ull << 32)) {  // sanity: 4 GiB frame cap
      do_close();
      return std::nullopt;
    }
    std::vector<std::byte> payload(size);
    if (!read_all(payload.data(), size)) {
      do_close();
      return std::nullopt;
    }
    Message msg;
    msg.source = source;
    msg.tag = tag;
    msg.payload = util::ByteBuffer(std::move(payload));
    return msg;
  }

  void close() override {
    std::lock_guard<std::mutex> lock(send_mutex_);
    do_close();
  }

  bool closed() const override { return closed_; }

 private:
  /// Half-close: wakes any thread blocked in recv()/send() via shutdown();
  /// the descriptor stays open until destruction so concurrent syscalls
  /// never race against close().
  void do_close() {
    if (!closed_.exchange(true)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  /// Loops until every byte is out. Partial writes simply continue the
  /// loop; EINTR (a signal landed mid-syscall) retries instead of killing
  /// the link; MSG_NOSIGNAL turns a peer disconnect into EPIPE rather than
  /// a process-fatal SIGPIPE.
  bool write_all(const void* data, std::uint64_t size) {
    const char* cursor = static_cast<const char*>(data);
    while (size > 0) {
      const ssize_t written = ::send(fd_, cursor, size, MSG_NOSIGNAL);
      if (written < 0 && errno == EINTR) {
        continue;
      }
      if (written <= 0) {
        return false;
      }
      cursor += written;
      size -= static_cast<std::uint64_t>(written);
    }
    return true;
  }

  bool read_all(void* data, std::uint64_t size) {
    char* cursor = static_cast<char*>(data);
    while (size > 0) {
      const ssize_t got = ::recv(fd_, cursor, size, 0);
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        return false;
      }
      cursor += got;
      size -= static_cast<std::uint64_t>(got);
    }
    return true;
  }

  int fd_;
  std::mutex send_mutex_;
  std::atomic<bool> closed_{false};
};

}  // namespace

std::unique_ptr<ClientLink> tcp_connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("tcp_connect: socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("tcp_connect: bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("tcp_connect: connect() to " + host + ":" + std::to_string(port) +
                             " failed");
  }
  return std::make_unique<TcpLink>(fd);
}

std::unique_ptr<ClientLink> tcp_connect(const std::string& host, std::uint16_t port,
                                        const WireOptions& options) {
  auto link = tcp_connect(host, port);

  Message msg;
  msg.source = -1;
  msg.tag = kTagHello;
  WireHello{}.serialize(msg.payload);
  link->send(std::move(msg));

  // The ack is guaranteed to be the first server → client frame: the
  // scheduler only ever sends in response to a request, and we have not
  // submitted anything yet.
  auto reply = link->recv(options.hello_timeout);
  if (!reply || reply->tag != kTagHelloAck) {
    link->close();
    throw std::runtime_error("tcp_connect: no hello ack from " + host + ":" +
                             std::to_string(port));
  }
  if (WireHello::deserialize(reply->payload).magic != kWireMagic) {
    link->close();
    throw std::runtime_error("tcp_connect: bad hello ack magic");
  }
  return link;
}

}  // namespace vira::comm
