#include "dms/data_server.hpp"

namespace vira::dms {

DataServer::DataServer(LoadEnvironment env) : env_(env) {}

void DataServer::report_insert(int proxy, ItemId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (forgotten_.count(proxy) == 0) {
    holders_[id].insert(proxy);
  }
}

void DataServer::forget_proxy(int proxy) {
  std::lock_guard<std::mutex> lock(mutex_);
  forgotten_.insert(proxy);
  for (auto it = holders_.begin(); it != holders_.end();) {
    it->second.erase(proxy);
    it = it->second.empty() ? holders_.erase(it) : std::next(it);
  }
}

void DataServer::report_evict(int proxy, ItemId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = holders_.find(id);
  if (it != holders_.end()) {
    it->second.erase(proxy);
    if (it->second.empty()) {
      holders_.erase(it);
    }
  }
}

std::optional<int> DataServer::holder_of(ItemId id, int excluding) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return other_holder(id, excluding);
}

std::optional<int> DataServer::other_holder(ItemId id, int excluding) const {
  auto it = holders_.find(id);
  if (it != holders_.end()) {
    for (const int proxy : it->second) {
      if (proxy != excluding) {
        return proxy;
      }
    }
  }
  return std::nullopt;
}

void DataServer::begin_file_read(const std::string& file_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++file_readers_[file_key];
}

void DataServer::end_file_read(const std::string& file_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = file_readers_.find(file_key);
  if (it != file_readers_.end() && --it->second <= 0) {
    file_readers_.erase(it);
  }
}

int DataServer::concurrent_readers(const std::string& file_key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = file_readers_.find(file_key);
  return it != file_readers_.end() ? it->second : 0;
}

StrategyDecision DataServer::choose_strategy(int proxy, ItemId id, std::uint64_t item_bytes,
                                             std::uint64_t file_bytes,
                                             const std::string& file_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  LoadRequestInfo info;
  info.item_bytes = item_bytes;
  info.file_bytes = file_bytes;
  auto readers_it = file_readers_.find(file_key);
  info.concurrent_same_file = readers_it != file_readers_.end() ? readers_it->second : 0;
  const auto holder = other_holder(id, proxy);
  info.peer_has_item = holder.has_value();
  StrategyDecision decision;
  decision.kind = selector_.choose(env_, info);
  if (decision.kind == StrategyKind::kPeerTransfer) {
    decision.peer = *holder;  // peer transfer only scores with a holder
  }
  ++decisions_[to_string(decision.kind)];
  return decision;
}

void DataServer::set_environment(const LoadEnvironment& env) {
  std::lock_guard<std::mutex> lock(mutex_);
  env_ = env;
}

LoadEnvironment DataServer::environment() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return env_;
}

void DataServer::observe_disk_bandwidth(double bytes_per_second) {
  if (bytes_per_second <= 0.0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  constexpr double kAlpha = 0.2;  // EMA smoothing
  env_.disk_bandwidth = (1.0 - kAlpha) * env_.disk_bandwidth + kAlpha * bytes_per_second;
}

std::unordered_map<std::string, std::uint64_t> DataServer::decision_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decisions_;
}

}  // namespace vira::dms
