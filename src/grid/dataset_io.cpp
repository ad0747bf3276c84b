#include "grid/dataset_io.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace vira::grid {

namespace {

/// "VMI2": the index of a dataset whose .vmb files hold VMB2 block blobs.
/// ensure_dataset regenerates a cache whose index carries another version.
constexpr std::uint32_t kIndexMagic = 0x564d4932;

void serialize_aabb(util::ByteBuffer& out, const Aabb& box) {
  out.write<double>(box.lo.x);
  out.write<double>(box.lo.y);
  out.write<double>(box.lo.z);
  out.write<double>(box.hi.x);
  out.write<double>(box.hi.y);
  out.write<double>(box.hi.z);
}

Aabb deserialize_aabb(util::ByteBuffer& in) {
  Aabb box;
  box.lo.x = in.read<double>();
  box.lo.y = in.read<double>();
  box.lo.z = in.read<double>();
  box.hi.x = in.read<double>();
  box.hi.y = in.read<double>();
  box.hi.z = in.read<double>();
  return box;
}

}  // namespace

std::uint64_t DatasetMeta::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& step : steps) {
    for (const auto& block : step.blocks) {
      total += block.size;
    }
  }
  return total;
}

Aabb DatasetMeta::bounds() const {
  Aabb box;
  if (!steps.empty()) {
    for (const auto& block : steps[0].blocks) {
      box.expand(block.bounds);
    }
  }
  return box;
}

void DatasetMeta::serialize(util::ByteBuffer& out) const {
  out.write<std::uint32_t>(kIndexMagic);
  out.write_string(name);
  out.write<std::uint32_t>(static_cast<std::uint32_t>(scalar_fields.size()));
  for (const auto& field : scalar_fields) {
    out.write_string(field);
  }
  out.write<std::uint32_t>(static_cast<std::uint32_t>(steps.size()));
  for (const auto& step : steps) {
    out.write<double>(step.time);
    out.write_string(step.filename);
    out.write<std::uint32_t>(static_cast<std::uint32_t>(step.blocks.size()));
    for (const auto& block : step.blocks) {
      out.write<std::int32_t>(block.id);
      out.write<std::int32_t>(block.ni);
      out.write<std::int32_t>(block.nj);
      out.write<std::int32_t>(block.nk);
      serialize_aabb(out, block.bounds);
      out.write<std::uint64_t>(block.offset);
      out.write<std::uint64_t>(block.size);
    }
  }
}

DatasetMeta DatasetMeta::deserialize(util::ByteBuffer& in) {
  const auto magic = in.read<std::uint32_t>();
  if (magic != kIndexMagic) {
    throw std::runtime_error("DatasetMeta: bad index magic");
  }
  DatasetMeta meta;
  meta.name = in.read_string();
  const auto nfields = in.read<std::uint32_t>();
  for (std::uint32_t f = 0; f < nfields; ++f) {
    meta.scalar_fields.push_back(in.read_string());
  }
  const auto nsteps = in.read<std::uint32_t>();
  for (std::uint32_t s = 0; s < nsteps; ++s) {
    TimestepInfo step;
    step.time = in.read<double>();
    step.filename = in.read_string();
    const auto nblocks = in.read<std::uint32_t>();
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      BlockInfo block;
      block.id = in.read<std::int32_t>();
      block.ni = in.read<std::int32_t>();
      block.nj = in.read<std::int32_t>();
      block.nk = in.read<std::int32_t>();
      block.bounds = deserialize_aabb(in);
      block.offset = in.read<std::uint64_t>();
      block.size = in.read<std::uint64_t>();
      step.blocks.push_back(block);
    }
    meta.steps.push_back(std::move(step));
  }
  return meta;
}

// ---------------------------------------------------------------------------
// file helpers
// ---------------------------------------------------------------------------

void write_file(const std::string& path, const util::ByteBuffer& buffer) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_file: cannot open '" + path + "'");
  }
  out.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
  if (!out) {
    throw std::runtime_error("write_file: short write to '" + path + "'");
  }
}

util::ByteBuffer read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw std::runtime_error("read_file: cannot open '" + path + "'");
  }
  const auto size = static_cast<std::uint64_t>(in.tellg());
  return read_file_range(path, 0, size);
}

util::ByteBuffer read_file_range(const std::string& path, std::uint64_t offset,
                                 std::uint64_t size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_file_range: cannot open '" + path + "'");
  }
  in.seekg(static_cast<std::streamoff>(offset));
  std::vector<std::byte> data(size);
  in.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(in.gcount()) != size) {
    throw std::runtime_error("read_file_range: short read from '" + path + "'");
  }
  return util::ByteBuffer(std::move(data));
}

// ---------------------------------------------------------------------------
// DatasetWriter
// ---------------------------------------------------------------------------

DatasetWriter::DatasetWriter(std::string directory, std::string name)
    : directory_(std::move(directory)) {
  meta_.name = std::move(name);
  std::filesystem::create_directories(directory_);
}

void DatasetWriter::begin_timestep(double time) {
  if (in_step_) {
    throw std::logic_error("DatasetWriter: begin_timestep while a step is open");
  }
  in_step_ = true;
  step_payload_.clear();
  TimestepInfo step;
  step.time = time;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "step_%04zu.vmb", meta_.steps.size());
  step.filename = buffer;
  meta_.steps.push_back(std::move(step));
}

void DatasetWriter::add_block(const StructuredBlock& block) {
  if (!in_step_) {
    throw std::logic_error("DatasetWriter: add_block outside a time step");
  }
  auto& step = meta_.steps.back();

  BlockInfo info;
  info.id = block.block_id();
  info.ni = block.ni();
  info.nj = block.nj();
  info.nk = block.nk();
  info.bounds = block.bounds();
  info.offset = step_payload_.size();

  block.serialize(step_payload_);
  info.size = step_payload_.size() - info.offset;
  step.blocks.push_back(info);

  if (meta_.steps.size() == 1) {
    // Record field inventory from the first block.
    if (meta_.scalar_fields.empty()) {
      meta_.scalar_fields = block.scalar_names();
    }
  }
}

void DatasetWriter::end_timestep() {
  if (!in_step_) {
    throw std::logic_error("DatasetWriter: end_timestep without begin_timestep");
  }
  write_file(directory_ + "/" + meta_.steps.back().filename, step_payload_);
  step_payload_.clear();
  in_step_ = false;
}

DatasetMeta DatasetWriter::finish() {
  if (in_step_) {
    throw std::logic_error("DatasetWriter: finish with an open time step");
  }
  if (finished_) {
    throw std::logic_error("DatasetWriter: finish called twice");
  }
  finished_ = true;
  util::ByteBuffer index;
  meta_.serialize(index);
  write_file(directory_ + "/dataset.vmi", index);
  return meta_;
}

// ---------------------------------------------------------------------------
// DatasetReader
// ---------------------------------------------------------------------------

DatasetReader::DatasetReader(std::string directory) : directory_(std::move(directory)) {
  auto index = read_file(directory_ + "/dataset.vmi");
  meta_ = DatasetMeta::deserialize(index);
}

util::ByteBuffer DatasetReader::read_block_bytes(int step, int block) const {
  const auto& step_info = meta_.steps.at(static_cast<std::size_t>(step));
  const auto& block_info = step_info.blocks.at(static_cast<std::size_t>(block));
  return read_file_range(directory_ + "/" + step_info.filename, block_info.offset,
                         block_info.size);
}

StructuredBlock DatasetReader::read_block(int step, int block) const {
  auto bytes = read_block_bytes(step, block);
  return StructuredBlock::deserialize(bytes);
}

DatasetMeta ensure_dataset(const std::string& directory, const std::function<void()>& generate) {
  try {
    return DatasetReader(directory).meta();
  } catch (const std::exception&) {
    std::filesystem::remove_all(directory);
    generate();
    return DatasetReader(directory).meta();
  }
}

}  // namespace vira::grid
