#pragma once

/// \file byte_buffer.hpp
/// Growable binary buffer with separate read/write cursors.
///
/// ByteBuffer is the wire unit of the communication layer: command
/// parameters, streamed geometry fragments and DMS blocks are all encoded
/// into ByteBuffers before crossing a Transport. All multi-byte values are
/// stored in native byte order; Viracocha only ever talks to itself, so no
/// endianness conversion is performed (the original system made the same
/// assumption for its MPI payloads).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace vira::util {

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::byte> data) : data_(std::move(data)) {}

  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  const std::byte* data() const noexcept { return data_.data(); }
  std::byte* data() noexcept { return data_.data(); }
  std::span<const std::byte> bytes() const noexcept { return {data_.data(), data_.size()}; }

  void clear() noexcept {
    data_.clear();
    read_pos_ = 0;
  }

  /// --- writing -----------------------------------------------------------
  void write_raw(const void* src, std::size_t size);

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    write_raw(&value, sizeof(T));
  }

  void write_string(const std::string& s);

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vector(const std::vector<T>& v) {
    write<std::uint64_t>(v.size());
    if (!v.empty()) {
      write_raw(v.data(), v.size() * sizeof(T));
    }
  }

  /// --- reading -----------------------------------------------------------
  std::size_t read_pos() const noexcept { return read_pos_; }
  void seek(std::size_t pos);
  std::size_t remaining() const noexcept { return data_.size() - read_pos_; }

  void read_raw(void* dst, std::size_t size);

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    T value;
    read_raw(&value, sizeof(T));
    return value;
  }

  std::string read_string();

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto count = read<std::uint64_t>();
    // Divide instead of multiplying: count * sizeof(T) can wrap for an
    // untrusted on-wire count, sneaking past the bounds check.
    if (count > remaining() / sizeof(T)) {
      throw std::out_of_range("ByteBuffer: vector length exceeds remaining bytes");
    }
    std::vector<T> v(count);
    if (count > 0) {
      read_raw(v.data(), count * sizeof(T));
    }
    return v;
  }

  bool operator==(const ByteBuffer& other) const noexcept { return data_ == other.data_; }

 private:
  void check_available(std::size_t size) const;

  std::vector<std::byte> data_;
  std::size_t read_pos_ = 0;
};

/// Immutable bytes shared by reference: a cached DMS blob (`dms::Blob`) or
/// a rank message's body. Every holder reads the one allocation and none
/// writes to it, so handing the bytes on copies a pointer, not the bytes.
using SharedBytes = std::shared_ptr<const ByteBuffer>;

/// Non-owning read cursor over a span of immutable bytes.
///
/// Mirrors ByteBuffer's read API without copying the underlying storage —
/// the block decode path reads DMS blobs (immutable once cached) through
/// this view instead of deep-copying them just to get a cursor.
/// The caller must keep the referenced memory alive for the reader's
/// lifetime.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}
  /// Views the buffer's *unread* remainder (from its current read_pos).
  explicit ByteReader(const ByteBuffer& buffer)
      : bytes_(buffer.bytes().subspan(buffer.read_pos())) {}

  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  void read_raw(void* dst, std::size_t size) {
    check_available(size);
    if (size > 0) {
      std::memcpy(dst, bytes_.data() + pos_, size);
      pos_ += size;
    }
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    T value;
    read_raw(&value, sizeof(T));
    return value;
  }

  std::string read_string() {
    const auto length = read<std::uint64_t>();
    check_available(length);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), length);
    pos_ += length;
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto count = read<std::uint64_t>();
    // Divide instead of multiplying: count * sizeof(T) can wrap for an
    // untrusted on-wire count, sneaking past the bounds check.
    if (count > remaining() / sizeof(T)) {
      throw std::out_of_range("ByteReader: vector length exceeds remaining bytes");
    }
    std::vector<T> v(count);
    if (count > 0) {
      read_raw(v.data(), count * sizeof(T));
    }
    return v;
  }

  /// Zero-copy view of the next `size` bytes, advancing the cursor. Lets a
  /// decoder copy a payload (e.g. a block's field region into its slab)
  /// straight out of a cached blob, or skip padding, without an
  /// intermediate vector.
  std::span<const std::byte> view(std::size_t size) {
    check_available(size);
    const auto out = bytes_.subspan(pos_, size);
    pos_ += size;
    return out;
  }

 private:
  void check_available(std::size_t size) const {
    if (size > remaining()) {
      throw std::out_of_range("ByteReader: read past end of view");
    }
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace vira::util
