#include "comm/transport.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace vira::comm {

namespace {
struct TransportMetrics {
  obs::Counter& messages = obs::Registry::instance().counter("comm.messages_sent");
  obs::Counter& bytes = obs::Registry::instance().counter("comm.bytes_sent");
};

TransportMetrics& metrics() {
  static TransportMetrics* instruments = new TransportMetrics();
  return *instruments;
}
}  // namespace

InProcTransport::InProcTransport(int size) {
  if (size <= 0) {
    throw std::invalid_argument("InProcTransport: size must be positive");
  }
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int endpoint = 0; endpoint < size; ++endpoint) {
    mailboxes_.push_back(std::make_unique<util::BlockingQueue<Message>>());
  }
}

void InProcTransport::send(int dest, Message msg) {
  if (dest < 0 || dest >= size()) {
    throw std::out_of_range("InProcTransport::send: bad destination endpoint");
  }
  metrics().messages.add();
  metrics().bytes.add(msg.byte_size());
  // Gated span: only sends issued from traced work (a span context on this
  // thread) get a "comm.send" record — heartbeat/teardown chatter stays out
  // of the trace, and the no-sink path never reaches here.
  obs::ActiveSpan span;
  if (obs::current_context().span_id != 0) {
    span = obs::Tracer::instance().start_child("comm.send");
    if (span.active()) {
      span.arg("dest", dest);
      span.arg("tag", msg.tag);
      span.arg("bytes", static_cast<std::int64_t>(msg.byte_size()));
    }
  }
  mailboxes_[static_cast<std::size_t>(dest)]->push(std::move(msg));
}

std::optional<Message> InProcTransport::recv(int self, std::chrono::milliseconds timeout) {
  if (self < 0 || self >= size()) {
    throw std::out_of_range("InProcTransport::recv: bad endpoint");
  }
  return mailboxes_[static_cast<std::size_t>(self)]->pop_for(timeout);
}

void InProcTransport::shutdown() {
  for (auto& mailbox : mailboxes_) {
    mailbox->close();
  }
}

bool InProcTransport::is_shut_down() const { return mailboxes_.front()->closed(); }

}  // namespace vira::comm
