#pragma once

/// \file data_item.hpp
/// Data items and their names (paper Sec. 4).
///
/// "The minimal unit of data handling is a data item. [...] The source of a
/// data item can be a single file, a part of a file, or even a combination
/// of files. [...] A data item is fully named by a source file, a data type
/// and format as well as an optional parameter list."
///
/// The DMS never interprets an item's bytes — payloads are opaque blobs;
/// decoding happens in the application layer (grid::StructuredBlock for CFD
/// blocks). Items are identified cluster-wide by a dense integer id handed
/// out by the central name service.

#include <cstdint>
#include <memory>
#include <string>

#include "util/byte_buffer.hpp"
#include "util/param_list.hpp"

namespace vira::dms {

using ItemId = std::uint64_t;
inline constexpr ItemId kInvalidItem = ~0ull;

/// An item's payload bytes, immutable once made and shared by reference:
/// the cache, its readers and a peer transfer's requester all hold the one
/// allocation (a peer reply carries it as the message body).
using Blob = util::SharedBytes;

inline Blob make_blob(util::ByteBuffer buffer) {
  return std::make_shared<const util::ByteBuffer>(std::move(buffer));
}

struct DataItemName {
  std::string source;  ///< file (or file set) the item derives from
  std::string type;    ///< e.g. "block", "lambda2-field"
  std::string format;  ///< e.g. "vmb"
  util::ParamList params;

  /// Canonical rendering; equal names render equally (params are sorted).
  std::string canonical() const {
    return source + "|" + type + "|" + format + "|" + params.canonical();
  }

  bool operator==(const DataItemName& other) const {
    return source == other.source && type == other.type && format == other.format &&
           params == other.params;
  }

  void serialize(util::ByteBuffer& out) const {
    out.write_string(source);
    out.write_string(type);
    out.write_string(format);
    params.serialize(out);
  }

  static DataItemName deserialize(util::ByteBuffer& in) {
    DataItemName name;
    name.source = in.read_string();
    name.type = in.read_string();
    name.format = in.read_string();
    name.params = util::ParamList::deserialize(in);
    return name;
  }
};

/// Helper: the canonical name of one block of one time step of a dataset —
/// the item the CFD commands request all day.
inline DataItemName block_item(const std::string& dataset_dir, int step, int block) {
  DataItemName name;
  name.source = dataset_dir;
  name.type = "block";
  name.format = "vmb";
  name.params.set_int("step", step);
  name.params.set_int("block", block);
  return name;
}

}  // namespace vira::dms
