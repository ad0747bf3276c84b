#pragma once

/// \file cfd_command.hpp
/// Shared plumbing for the CFD post-processing commands (paper Sec. 6.3).
///
/// Every test command understands the same parameter vocabulary:
///   dataset   — dataset directory (required)
///   step      — time step index (default 0)
///   field     — node scalar to isosurface (default "density")
///   iso       — iso value / λ2 threshold
///   workers   — requested work-group size (handled by the scheduler)
///   prefetch  — "none" | "obl" | "pom" | "markov" (DMS-enabled commands)
///   stream_cells — active cells per streamed fragment (streaming commands)
///   viewpoint — "x,y,z" viewer position (ViewerIso)
///
/// BlockAccess hides the Simple-vs-DataMan difference: the Simple commands
/// read blocks straight from their files every time ("works without data
/// management"), the DataMan commands go through the node's DataProxy.
/// Phase accounting (compute/read/send) is applied here so Fig. 15's
/// breakdown is consistent across commands.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/command.hpp"
#include "core/vmb_data_source.hpp"
#include "grid/structured_block.hpp"

namespace vira::algo {

/// A decoded, immutable block as the pipeline hands it to compute stages.
using BlockPtr = std::shared_ptr<const grid::StructuredBlock>;

/// Decodes a DMS blob into a block: a read cursor straight over the cached
/// bytes (blobs are immutable once cached) and one copy of the field
/// region into a recycled slab (StructuredBlock::deserialize).
grid::StructuredBlock decode_block(const dms::Blob& blob);

/// Round-robin block ownership: worker `rank` (0-based within the group)
/// owns position `i` of `order` iff i % group_size == rank.
bool owns_position(std::size_t position, int group_rank, int group_size);

/// Contiguous chunk ownership [begin, end): keeps each worker's request
/// stream in file order, which is what makes the OBL successor relation
/// (paper Sec. 4.2) predictive. The monolithic commands use this.
std::pair<int, int> chunk_range(int total, int group_rank, int group_size);

class BlockAccess {
 public:
  /// `use_dms=false` reproduces the Simple* commands: a private reader,
  /// every load hits the file system.
  BlockAccess(core::CommandContext& context, std::string dataset, bool use_dms);

  /// Loads (and decodes) one block, accounted to the read phase.
  BlockPtr load(int step, int block);

  /// True when loads can run on the node's task pool (DMS mode + a pool
  /// wired into the context). The pipelined executor requires this; the
  /// Simple* commands stay serial by construction.
  bool async_capable() const;

  /// Submits load+decode of one block to the node's task pool and returns
  /// immediately. The future yields the decoded block; decoding happens on
  /// the pool thread, off the command's critical path. Requires
  /// async_capable(). NOT phase-accounted — the pipeline charges only the
  /// time it actually stalls waiting on a future to the read phase.
  util::Future<BlockPtr> load_async(int step, int block);

  /// Issues a code prefetch for a block (DMS mode only; no-op otherwise).
  void prefetch(int step, int block);

  /// Configures the system prefetcher of this node's proxy for the dataset
  /// (DMS mode only). `wrap_steps` lets OBL cross time-step files.
  void configure_prefetcher(const std::string& kind, bool wrap_steps);

  const grid::DatasetMeta& meta() const { return meta_; }
  bool use_dms() const { return use_dms_; }

  /// Decoded-block cache statistics (hits across load/load_async).
  std::uint64_t decoded_hits() const;

 private:
  /// Small LRU of decoded blocks keyed by (step, block). Revisits — the
  /// pathline integrator touching the same block for many seeds, or
  /// progressive passes over one step — skip deserialization entirely.
  /// Thread-safe: pool threads populate it while the command thread reads.
  BlockPtr decoded_lookup(std::uint64_t key);
  void decoded_insert(std::uint64_t key, BlockPtr block);
  static std::uint64_t decoded_key(int step, int block) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(step)) << 32) |
           static_cast<std::uint32_t>(block);
  }
  BlockPtr load_uncached(int step, int block);

  core::CommandContext& context_;
  std::string dataset_;
  bool use_dms_;
  const grid::DatasetMeta& meta_;
  std::unique_ptr<grid::DatasetReader> direct_reader_;  ///< Simple mode only

  static constexpr std::size_t kDecodedCapacity = 8;
  mutable std::mutex decoded_mutex_;
  std::list<std::uint64_t> decoded_lru_;  ///< front = most recent
  std::unordered_map<std::uint64_t, std::pair<BlockPtr, std::list<std::uint64_t>::iterator>>
      decoded_;
  std::uint64_t decoded_hits_ = 0;
};

/// Parses "x,y,z"; falls back to `fallback` on absence/garbage.
math::Vec3 parse_vec3(const util::ParamList& params, const std::string& key,
                      const math::Vec3& fallback);

/// Registers every built-in CFD command with the global registry.
/// Idempotent; call before constructing a Backend.
void register_builtin_commands();

}  // namespace vira::algo
