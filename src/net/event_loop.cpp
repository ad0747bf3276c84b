#include "net/event_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/blocking_queue.hpp"
#include "util/log.hpp"

namespace vira::net {

namespace {

/// Frontend instruments (resolved once; see obs::Registry contract).
struct NetMetrics {
  obs::Gauge& connections = obs::Registry::instance().gauge("net.connections");
  obs::Gauge& slow_links = obs::Registry::instance().gauge("net.slow_links");
  obs::Counter& accepts = obs::Registry::instance().counter("net.accepts");
  obs::Counter& bytes_sent = obs::Registry::instance().counter("net.bytes_sent");
  obs::Counter& bytes_received = obs::Registry::instance().counter("net.bytes_received");
  obs::Counter& backpressure_drops =
      obs::Registry::instance().counter("net.backpressure_drops");
  obs::Counter& links_reaped = obs::Registry::instance().counter("net.links_reaped");
};

NetMetrics& metrics() {
  static NetMetrics* instruments = new NetMetrics();
  return *instruments;
}

/// One queued outbound frame. Header and payload stay separate buffers —
/// flush() hands both to sendmsg as iovecs, so the payload bytes the
/// scheduler (or the result cache) handed over are written in place.
struct OutFrame {
  std::array<std::byte, kFrameHeaderBytes> header{};
  util::ByteBuffer payload;
  std::size_t offset = 0;  ///< header+payload bytes already on the wire
  obs::ActiveSpan span;    ///< "net.send": enqueue → fully written

  std::size_t wire_size() const noexcept { return kFrameHeaderBytes + payload.size(); }
};

/// Shared connection state between the owning loop thread, the NetLink the
/// scheduler holds, and any thread calling send().
struct Conn {
  int fd = -1;
  std::size_t loop = 0;  ///< owning loop-thread index

  FrameParser parser;
  util::BlockingQueue<comm::Message> incoming;

  /// Outbound queue state, guarded by out_mutex (send paths + loop flush).
  std::mutex out_mutex;
  std::deque<OutFrame> outq;
  std::size_t queued_bytes = 0;
  bool close_requested = false;
  bool slow = false;
  std::chrono::steady_clock::time_point slow_since{};

  std::atomic<bool> kick_pending{false};
  std::atomic<bool> closed{false};

  /// Loop-thread-only: EPOLLOUT currently armed.
  bool want_write = false;
  /// Loop-thread-only: no frame read yet. Only the first frame of a link
  /// may be a hello; a later tag-17 frame is ordinary client traffic.
  bool awaiting_first_frame = true;
};

}  // namespace

struct EventLoop::Impl {
  /// One epoll instance + wakeup eventfd per loop thread. Cross-thread
  /// work (newly accepted conns, send kicks, close requests) lands in the
  /// mutex-guarded inboxes and the eventfd pops the epoll_wait.
  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::mutex mutex;
    std::vector<std::shared_ptr<Conn>> pending;  ///< accepted, to register
    std::vector<std::shared_ptr<Conn>> kicks;    ///< flush/close requests
    /// Loop-thread-only registry of live conns.
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
  };

  NetConfig config;
  std::uint16_t port = 0;
  int listen_fd = -1;
  AcceptHandler on_accept;
  ReadableHandler on_readable;
  std::vector<std::unique_ptr<Loop>> loops;
  std::atomic<bool> running{false};
  bool started = false;

  std::atomic<std::size_t> next_loop{0};
  std::atomic<std::size_t> conn_count{0};
  std::atomic<std::size_t> slow_count{0};
  std::atomic<std::uint64_t> reap_count{0};
  std::atomic<std::uint64_t> drop_count{0};

  explicit Impl(std::uint16_t want_port, NetConfig cfg);
  ~Impl();

  void start();
  void stop();

  void run_loop(std::size_t index);
  void process_inboxes(Loop& loop, std::vector<int>& deferred_close);
  void register_conn(Loop& loop, const std::shared_ptr<Conn>& conn,
                     std::vector<int>& deferred_close);
  void accept_ready(Loop& loop);
  bool read_ready(Loop& loop, const std::shared_ptr<Conn>& conn,
                  std::vector<int>& deferred_close);
  void handle_hello(const std::shared_ptr<Conn>& conn, comm::Message& msg,
                    std::vector<int>& deferred_close, Loop& loop);
  void flush(Loop& loop, const std::shared_ptr<Conn>& conn, std::vector<int>& deferred_close);
  void set_want_write(Loop& loop, Conn& conn, bool want);
  void sweep(Loop& loop, std::chrono::steady_clock::time_point now,
             std::vector<int>& deferred_close);
  void teardown(Loop& loop, const std::shared_ptr<Conn>& conn,
                std::vector<int>* deferred_close);

  bool enqueue(const std::shared_ptr<Conn>& conn, comm::Message msg);
  void kick(const std::shared_ptr<Conn>& conn);
  void wake(Loop& loop);
};

namespace {

/// The ClientLink the scheduler holds: send() enqueues onto the conn's
/// bounded queue and kicks the owning loop; recv() pops the messages the
/// read path reassembled. The shared Conn keeps the state alive even if
/// the loop drops the connection while the scheduler still holds the link.
class NetLink final : public comm::ClientLink {
 public:
  NetLink(EventLoop::Impl* owner, std::shared_ptr<Conn> conn)
      : owner_(owner), conn_(std::move(conn)) {}

  void send(comm::Message msg) override { owner_->enqueue(conn_, std::move(msg)); }

  std::optional<comm::Message> recv(std::chrono::milliseconds timeout) override {
    return conn_->incoming.pop_for(timeout);
  }

  void close() override {
    {
      std::lock_guard<std::mutex> lock(conn_->out_mutex);
      conn_->close_requested = true;
    }
    conn_->incoming.close();
    owner_->kick(conn_);
  }

  bool closed() const override { return conn_->closed.load(std::memory_order_relaxed); }

 private:
  EventLoop::Impl* owner_;
  std::shared_ptr<Conn> conn_;
};

}  // namespace

EventLoop::Impl::Impl(std::uint16_t want_port, NetConfig cfg) : config(std::move(cfg)) {
  if (config.threads < 1) {
    config.threads = 1;
  }
  listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd < 0) {
    throw std::runtime_error("net::EventLoop: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(want_port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd, 512) != 0) {
    ::close(listen_fd);
    throw std::runtime_error("net::EventLoop: bind/listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port = ntohs(addr.sin_port);

  for (int index = 0; index < config.threads; ++index) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(0);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      throw std::runtime_error("net::EventLoop: epoll/eventfd creation failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops.push_back(std::move(loop));
  }
  // The listener lives in loop 0's epoll set (level-triggered: a backlog
  // surviving one accept burst re-reports immediately).
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd;
  ::epoll_ctl(loops[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
}

EventLoop::Impl::~Impl() {
  stop();
  for (auto& loop : loops) {
    if (loop->epoll_fd >= 0) {
      ::close(loop->epoll_fd);
    }
    if (loop->wake_fd >= 0) {
      ::close(loop->wake_fd);
    }
  }
  if (listen_fd >= 0) {
    ::close(listen_fd);
  }
}

void EventLoop::Impl::start() {
  if (started) {
    return;
  }
  started = true;
  running.store(true);
  for (std::size_t index = 0; index < loops.size(); ++index) {
    loops[index]->thread = std::thread([this, index] { run_loop(index); });
  }
  VIRA_INFO("net") << "event loop listening on 127.0.0.1:" << port << " (" << loops.size()
                   << " thread" << (loops.size() == 1 ? "" : "s") << ")";
}

void EventLoop::Impl::stop() {
  if (!running.exchange(false)) {
    return;
  }
  for (auto& loop : loops) {
    wake(*loop);
  }
  for (auto& loop : loops) {
    if (loop->thread.joinable()) {
      loop->thread.join();
    }
  }
  // Threads are down; close every remaining connection from this thread.
  for (auto& loop : loops) {
    std::vector<std::shared_ptr<Conn>> remaining;
    {
      std::lock_guard<std::mutex> lock(loop->mutex);
      remaining = loop->pending;
      loop->pending.clear();
      loop->kicks.clear();
    }
    for (auto& [fd, conn] : loop->conns) {
      (void)fd;
      remaining.push_back(conn);
    }
    for (auto& conn : remaining) {
      teardown(*loop, conn, nullptr);
    }
    loop->conns.clear();
  }
  VIRA_INFO("net") << "event loop stopped";
}

void EventLoop::Impl::wake(Loop& loop) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto ignored = ::write(loop.wake_fd, &one, sizeof(one));
}

void EventLoop::Impl::kick(const std::shared_ptr<Conn>& conn) {
  auto& loop = *loops[conn->loop];
  if (conn->kick_pending.exchange(true, std::memory_order_acq_rel)) {
    return;  // a kick is already queued; the loop will see the new frames
  }
  {
    std::lock_guard<std::mutex> lock(loop.mutex);
    loop.kicks.push_back(conn);
  }
  wake(loop);
}

bool EventLoop::Impl::enqueue(const std::shared_ptr<Conn>& conn, comm::Message msg) {
  if (msg.body) {
    // The frame has no place for a body; refused, not silently dropped.
    throw std::invalid_argument("net::EventLoop: a socket link carries no message body");
  }
  if (conn->closed.load(std::memory_order_relaxed)) {
    return false;
  }
  OutFrame frame;
  encode_frame_header(frame.header.data(), msg.source, msg.tag, msg.payload.size());
  frame.payload = std::move(msg.payload);
  if (msg.trace_span != 0) {
    frame.span =
        obs::Tracer::instance().start("net.send", msg.trace_request, /*rank=*/0, msg.trace_span);
    if (frame.span.active()) {
      frame.span.arg("bytes", static_cast<std::int64_t>(frame.payload.size()));
    }
  }

  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    if (conn->close_requested || conn->closed.load(std::memory_order_relaxed)) {
      return false;
    }
    const std::size_t wire = frame.wire_size();
    if (config.send_cap_bytes > 0 && conn->queued_bytes + wire > config.send_cap_bytes) {
      // Hard cap: the reader is this far behind, drop the frame. The link
      // is necessarily already slow and riding toward the reap deadline.
      drop_count.fetch_add(1, std::memory_order_relaxed);
      metrics().backpressure_drops.add();
      return false;
    }
    conn->outq.push_back(std::move(frame));
    conn->queued_bytes += wire;
    if (!conn->slow && config.send_budget_bytes > 0 &&
        conn->queued_bytes > config.send_budget_bytes) {
      conn->slow = true;
      conn->slow_since = std::chrono::steady_clock::now();
      slow_count.fetch_add(1, std::memory_order_relaxed);
      metrics().slow_links.add(1);
    }
  }
  kick(conn);
  return true;
}

void EventLoop::Impl::run_loop(std::size_t index) {
  auto& loop = *loops[index];
  std::array<epoll_event, 128> events;
  auto last_sweep = std::chrono::steady_clock::now();
  // fds whose ::close is deferred to the end of the event batch, so the
  // kernel cannot recycle a just-closed fd into a freshly accepted conn
  // while stale events for the old fd are still in this batch.
  std::vector<int> deferred_close;

  while (running.load(std::memory_order_relaxed)) {
    const int ready =
        ::epoll_wait(loop.epoll_fd, events.data(), static_cast<int>(events.size()), 50);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      VIRA_WARN("net") << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (fd == loop.wake_fd) {
        std::uint64_t drain = 0;
        while (::read(loop.wake_fd, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd) {
        accept_ready(loop);
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) {
        continue;  // torn down earlier in this batch
      }
      auto conn = it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        teardown(loop, conn, &deferred_close);
        continue;
      }
      if ((mask & EPOLLIN) != 0 && !read_ready(loop, conn, deferred_close)) {
        continue;  // conn died during the read
      }
      if ((mask & EPOLLOUT) != 0) {
        flush(loop, conn, deferred_close);
      }
    }
    process_inboxes(loop, deferred_close);
    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep >= std::chrono::milliseconds(50)) {
      sweep(loop, now, deferred_close);
      last_sweep = now;
    }
    for (const int fd : deferred_close) {
      ::close(fd);
    }
    deferred_close.clear();
  }
}

void EventLoop::Impl::process_inboxes(Loop& loop, std::vector<int>& deferred_close) {
  std::vector<std::shared_ptr<Conn>> pending;
  std::vector<std::shared_ptr<Conn>> kicks;
  {
    std::lock_guard<std::mutex> lock(loop.mutex);
    pending.swap(loop.pending);
    kicks.swap(loop.kicks);
  }
  for (auto& conn : pending) {
    register_conn(loop, conn, deferred_close);
  }
  for (auto& conn : kicks) {
    conn->kick_pending.store(false, std::memory_order_release);
    if (conn->closed.load(std::memory_order_relaxed)) {
      continue;
    }
    bool close_requested = false;
    {
      std::lock_guard<std::mutex> lock(conn->out_mutex);
      close_requested = conn->close_requested;
    }
    flush(loop, conn, deferred_close);
    if (close_requested && !conn->closed.load(std::memory_order_relaxed)) {
      // Graceful close: whatever the kernel accepted just now is on the
      // wire; the rest is abandoned with the link.
      teardown(loop, conn, &deferred_close);
    }
  }
}

void EventLoop::Impl::register_conn(Loop& loop, const std::shared_ptr<Conn>& conn,
                                    std::vector<int>& deferred_close) {
  if (conn->closed.load(std::memory_order_relaxed)) {
    return;
  }
  loop.conns[conn->fd] = conn;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
    VIRA_WARN("net") << "epoll_ctl(ADD) failed: " << std::strerror(errno);
    teardown(loop, conn, &deferred_close);
  }
}

void EventLoop::Impl::accept_ready(Loop& loop) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN (drained) or listener shut down
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->loop = next_loop.fetch_add(1, std::memory_order_relaxed) % loops.size();
    conn_count.fetch_add(1, std::memory_order_relaxed);
    metrics().connections.add(1);
    metrics().accepts.add();

    auto& target = *loops[conn->loop];
    {
      std::lock_guard<std::mutex> lock(target.mutex);
      target.pending.push_back(conn);
    }
    if (&target != &loop) {
      wake(target);
    }
    if (on_accept) {
      on_accept(std::make_shared<NetLink>(this, conn));
    }
  }
}

bool EventLoop::Impl::read_ready(Loop& loop, const std::shared_ptr<Conn>& conn,
                                 std::vector<int>& deferred_close) {
  std::byte buf[64 * 1024];
  std::vector<comm::Message> msgs;
  bool dead = false;
  // Edge-triggered: drain until EAGAIN, or the edge is lost.
  for (;;) {
    const ssize_t got = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (got > 0) {
      metrics().bytes_received.add(static_cast<std::uint64_t>(got));
      if (!conn->parser.feed(buf, static_cast<std::size_t>(got), msgs)) {
        VIRA_WARN("net") << "dropping link: " << conn->parser.error();
        dead = true;
        break;
      }
      continue;
    }
    if (got == 0) {
      dead = true;  // orderly EOF
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    dead = true;
    break;
  }

  bool delivered = false;
  for (auto& msg : msgs) {
    const bool first = std::exchange(conn->awaiting_first_frame, false);
    if (first && msg.tag == comm::kTagHello) {
      handle_hello(conn, msg, deferred_close, loop);
      continue;
    }
    conn->incoming.push(std::move(msg));
    delivered = true;
  }
  if (dead) {
    teardown(loop, conn, &deferred_close);
    return false;
  }
  if (delivered && on_readable) {
    on_readable();
  }
  return true;
}

void EventLoop::Impl::handle_hello(const std::shared_ptr<Conn>& conn, comm::Message& msg,
                                   std::vector<int>& deferred_close, Loop& loop) {
  comm::WireHello hello;
  try {
    hello = comm::WireHello::deserialize(msg.payload);
  } catch (const std::exception&) {
    hello.magic = 0;
  }
  if (hello.magic != comm::kWireMagic) {
    VIRA_WARN("net") << "dropping link: bad hello";
    teardown(loop, conn, &deferred_close);
    return;
  }
  // Whatever features the client asked for, the ack grants none (a default
  // WireHello carries features = 0), so the link stays on raw frames.
  comm::Message reply;
  reply.source = 0;
  reply.tag = comm::kTagHelloAck;
  comm::WireHello{}.serialize(reply.payload);
  enqueue(conn, std::move(reply));
}

void EventLoop::Impl::set_want_write(Loop& loop, Conn& conn, bool want) {
  if (conn.want_write == want) {
    return;
  }
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | (want ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EventLoop::Impl::flush(Loop& loop, const std::shared_ptr<Conn>& conn,
                            std::vector<int>& deferred_close) {
  if (conn->closed.load(std::memory_order_relaxed)) {
    return;
  }
  bool error = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    while (!conn->outq.empty()) {
      // Scatter/gather up to 16 frames per syscall: header bytes and
      // payload spans go out as separate iovecs, zero per-send coalescing.
      std::array<iovec, 32> iov;
      std::size_t iov_count = 0;
      for (auto it = conn->outq.begin(); it != conn->outq.end() && iov_count + 2 <= iov.size();
           ++it) {
        OutFrame& frame = *it;
        std::size_t offset = frame.offset;
        if (offset < kFrameHeaderBytes) {
          iov[iov_count].iov_base = frame.header.data() + offset;
          iov[iov_count].iov_len = kFrameHeaderBytes - offset;
          ++iov_count;
          offset = 0;
        } else {
          offset -= kFrameHeaderBytes;
        }
        if (frame.payload.size() > offset) {
          iov[iov_count].iov_base =
              const_cast<std::byte*>(frame.payload.data()) + offset;
          iov[iov_count].iov_len = frame.payload.size() - offset;
          ++iov_count;
        }
      }
      msghdr mh{};
      mh.msg_iov = iov.data();
      mh.msg_iovlen = iov_count;
      const ssize_t wrote = ::sendmsg(conn->fd, &mh, MSG_NOSIGNAL);
      if (wrote < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          set_want_write(loop, *conn, true);
          return;
        }
        error = true;  // EPIPE/ECONNRESET: the peer went away mid-stream
        break;
      }
      metrics().bytes_sent.add(static_cast<std::uint64_t>(wrote));
      std::size_t advanced = static_cast<std::size_t>(wrote);
      while (advanced > 0) {
        OutFrame& front = conn->outq.front();
        const std::size_t rest = front.wire_size() - front.offset;
        const std::size_t take = std::min(advanced, rest);
        front.offset += take;
        advanced -= take;
        if (front.offset == front.wire_size()) {
          conn->queued_bytes -= front.wire_size();
          front.span.end();
          conn->outq.pop_front();
        }
      }
      if (conn->slow && conn->queued_bytes <= config.send_budget_bytes) {
        conn->slow = false;
        slow_count.fetch_sub(1, std::memory_order_relaxed);
        metrics().slow_links.add(-1);
      }
    }
    if (!error) {
      set_want_write(loop, *conn, false);
      return;
    }
  }
  teardown(loop, conn, &deferred_close);
}

void EventLoop::Impl::sweep(Loop& loop, std::chrono::steady_clock::time_point now,
                            std::vector<int>& deferred_close) {
  std::vector<std::pair<std::shared_ptr<Conn>, std::size_t>> victims;
  for (auto& [fd, conn] : loop.conns) {
    (void)fd;
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    if (conn->slow && now - conn->slow_since >= config.reap_deadline) {
      victims.emplace_back(conn, conn->queued_bytes);
    }
  }
  for (auto& [conn, queued] : victims) {
    VIRA_WARN("net") << "reaping slow link (over budget for "
                     << std::chrono::duration_cast<std::chrono::milliseconds>(
                            config.reap_deadline)
                            .count()
                     << " ms, " << queued << " bytes queued)";
    reap_count.fetch_add(1, std::memory_order_relaxed);
    metrics().links_reaped.add();
    teardown(loop, conn, &deferred_close);
  }
}

void EventLoop::Impl::teardown(Loop& loop, const std::shared_ptr<Conn>& conn,
                               std::vector<int>* deferred_close) {
  if (conn->closed.exchange(true)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    for (auto& frame : conn->outq) {
      frame.span.end();
    }
    conn->outq.clear();
    conn->queued_bytes = 0;
    if (conn->slow) {
      conn->slow = false;
      slow_count.fetch_sub(1, std::memory_order_relaxed);
      metrics().slow_links.add(-1);
    }
  }
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  loop.conns.erase(conn->fd);
  if (deferred_close != nullptr) {
    deferred_close->push_back(conn->fd);
  } else {
    ::close(conn->fd);
  }
  conn->incoming.close();
  conn_count.fetch_sub(1, std::memory_order_relaxed);
  metrics().connections.add(-1);
  // Wake the scheduler so closed-link reaping sees the disconnect promptly.
  if (on_readable) {
    on_readable();
  }
}

EventLoop::EventLoop(std::uint16_t port, NetConfig config)
    : impl_(std::make_unique<Impl>(port, std::move(config))) {}

EventLoop::~EventLoop() = default;

std::uint16_t EventLoop::port() const noexcept { return impl_->port; }

void EventLoop::set_on_accept(AcceptHandler handler) {
  impl_->on_accept = std::move(handler);
}

void EventLoop::set_on_readable(ReadableHandler handler) {
  impl_->on_readable = std::move(handler);
}

void EventLoop::start() { impl_->start(); }

void EventLoop::stop() { impl_->stop(); }

std::size_t EventLoop::connections() const noexcept {
  return impl_->conn_count.load(std::memory_order_relaxed);
}

std::size_t EventLoop::slow_links() const noexcept {
  return impl_->slow_count.load(std::memory_order_relaxed);
}

std::uint64_t EventLoop::reaped() const noexcept {
  return impl_->reap_count.load(std::memory_order_relaxed);
}

std::uint64_t EventLoop::dropped_frames() const noexcept {
  return impl_->drop_count.load(std::memory_order_relaxed);
}

}  // namespace vira::net
