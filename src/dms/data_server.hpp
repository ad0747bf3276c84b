#pragma once

/// \file data_server.hpp
/// The centralized data manager server (paper Sec. 4.1).
///
/// "A centralized data server that resides at the scheduler node
/// coordinates all proxies. It maintains information about the proxies'
/// local state and deals with data requests [...] each time a block has to
/// be loaded into cache to fulfill a request, first of all, a proxy asks
/// the data manager server which strategy to use."
///
/// The server owns the name service, a registry of which proxy holds which
/// item (so peer transfer has somewhere to go), a per-file concurrency
/// gauge (input to the collective-I/O fitness), and the environment model
/// behind the fitness function. All methods are thread-safe. Proxies reach
/// it through the ServerApi interface: directly (single-process wiring) or
/// via rank messages serviced by the scheduler (core::RemoteServerApi —
/// the paper's deployment; BackendConfig::dms_over_messages).

#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "dms/loading.hpp"
#include "dms/name_service.hpp"
#include "dms/server_api.hpp"

namespace vira::dms {

class DataServer : public ServerApi {
 public:
  explicit DataServer(LoadEnvironment env = LoadEnvironment{});

  NameService& names() { return names_; }

  /// --- ServerApi: naming ----------------------------------------------------
  ItemId intern(const DataItemName& name) override { return names_.intern(name); }
  std::optional<DataItemName> lookup(ItemId id) override { return names_.lookup(id); }

  /// --- ServerApi: proxy state registry ---------------------------------------
  void report_insert(int proxy, ItemId id) override;
  void report_evict(int proxy, ItemId id) override;
  /// Drops `proxy` from every holder set for good and ignores its later
  /// inserts: the scheduler calls this when it declares the proxy's rank
  /// (proxy + 1) dead, so the fitness function never names a dead holder.
  void forget_proxy(int proxy);
  /// Any proxy (≠ `excluding`) holding the item in its primary cache.
  std::optional<int> holder_of(ItemId id, int excluding) const;

  /// --- ServerApi: file read concurrency --------------------------------------
  void begin_file_read(const std::string& file_key) override;
  void end_file_read(const std::string& file_key) override;
  int concurrent_readers(const std::string& file_key) const;

  /// --- ServerApi: strategy decision ------------------------------------------
  StrategyDecision choose_strategy(int proxy, ItemId id, std::uint64_t item_bytes,
                                   std::uint64_t file_bytes, const std::string& file_key) override;

  /// --- environment -------------------------------------------------------
  void set_environment(const LoadEnvironment& env);
  LoadEnvironment environment() const;
  /// Feeds an observed disk bandwidth sample (exponential moving average) —
  /// how the DMS "reacts on environment changes like network traffic delays".
  void observe_disk_bandwidth(double bytes_per_second) override;

  /// Number of strategy decisions made, by kind (diagnostics).
  std::unordered_map<std::string, std::uint64_t> decision_counts() const;

 private:
  /// holder_of with mutex_ held.
  std::optional<int> other_holder(ItemId id, int excluding) const;
  mutable std::mutex mutex_;
  NameService names_;
  LoadEnvironment env_;
  FitnessSelector selector_;
  std::unordered_map<ItemId, std::set<int>> holders_;
  std::set<int> forgotten_;  ///< proxies of dead ranks (forget_proxy)
  std::unordered_map<std::string, int> file_readers_;
  mutable std::unordered_map<std::string, std::uint64_t> decisions_;
};

}  // namespace vira::dms
