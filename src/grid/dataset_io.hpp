#pragma once

/// \file dataset_io.hpp
/// On-disk multi-block dataset format (".vmb" steps + ".vmi" index).
///
/// Layout mirrors how multi-block CFD results are stored in practice and
/// what the paper's DMS needs: one file per time step, each holding all
/// blocks back to back, with a byte-range table so a *single block* can be
/// read without touching the rest of the file — the DMS's "data item" whose
/// source is "a part of a file" (Sec. 4). The index file `dataset.vmi`
/// records the global inventory (Table 1's time steps / blocks / size on
/// disk is printed straight from it).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "grid/structured_block.hpp"
#include "math/aabb.hpp"
#include "util/byte_buffer.hpp"

namespace vira::grid {

struct BlockInfo {
  int id = 0;
  int ni = 0;
  int nj = 0;
  int nk = 0;
  Aabb bounds;
  std::uint64_t offset = 0;  ///< byte offset of the block payload in its step file
  std::uint64_t size = 0;    ///< payload size in bytes
};

struct TimestepInfo {
  double time = 0.0;
  std::string filename;  ///< step file name, relative to the dataset directory
  std::vector<BlockInfo> blocks;
};

struct DatasetMeta {
  std::string name;
  std::vector<std::string> scalar_fields;
  std::vector<TimestepInfo> steps;

  int timestep_count() const { return static_cast<int>(steps.size()); }
  int block_count() const { return steps.empty() ? 0 : static_cast<int>(steps[0].blocks.size()); }
  std::uint64_t total_bytes() const;
  /// Union of block bounds over the first time step.
  Aabb bounds() const;

  void serialize(util::ByteBuffer& out) const;
  static DatasetMeta deserialize(util::ByteBuffer& in);
};

/// Streams a dataset to disk one time step at a time so generation never
/// needs the whole dataset in memory.
class DatasetWriter {
 public:
  /// Creates `directory` if needed. `name` becomes DatasetMeta::name.
  DatasetWriter(std::string directory, std::string name);

  void begin_timestep(double time);
  void add_block(const StructuredBlock& block);
  void end_timestep();

  /// Writes dataset.vmi and returns the final metadata.
  DatasetMeta finish();

 private:
  std::string directory_;
  DatasetMeta meta_;
  util::ByteBuffer step_payload_;
  bool in_step_ = false;
  bool finished_ = false;
};

/// Random access to a written dataset; block reads touch only the block's
/// byte range. Stateless per call — safe to share across threads.
class DatasetReader {
 public:
  explicit DatasetReader(std::string directory);

  const DatasetMeta& meta() const { return meta_; }
  const std::string& directory() const { return directory_; }

  /// Raw serialized bytes of one block (what the DMS caches).
  util::ByteBuffer read_block_bytes(int step, int block) const;

  /// Decoded block (read + deserialize).
  StructuredBlock read_block(int step, int block) const;

 private:
  std::string directory_;
  DatasetMeta meta_;
};

/// The dataset cached in `directory`. When its index is missing or does not
/// parse (e.g. a cache written by another format version), the directory is
/// wiped and `generate` writes it again, once: a freshly generated dataset
/// that still does not open throws.
DatasetMeta ensure_dataset(const std::string& directory, const std::function<void()>& generate);

/// Convenience for tests: write a ByteBuffer to / read one from a file.
void write_file(const std::string& path, const util::ByteBuffer& buffer);
util::ByteBuffer read_file(const std::string& path);
util::ByteBuffer read_file_range(const std::string& path, std::uint64_t offset,
                                 std::uint64_t size);

}  // namespace vira::grid
