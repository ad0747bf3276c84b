#include "util/byte_buffer.hpp"

namespace vira::util {

void ByteBuffer::write_raw(const void* src, std::size_t size) {
  if (size == 0) {
    return;
  }
  // insert, not resize + memcpy: resize would zero-fill what the copy
  // overwrites at once.
  const auto* bytes = static_cast<const std::byte*>(src);
  data_.insert(data_.end(), bytes, bytes + size);
}

void ByteBuffer::write_string(const std::string& s) {
  write<std::uint64_t>(s.size());
  write_raw(s.data(), s.size());
}

void ByteBuffer::seek(std::size_t pos) {
  if (pos > data_.size()) {
    throw std::out_of_range("ByteBuffer::seek past end");
  }
  read_pos_ = pos;
}

void ByteBuffer::check_available(std::size_t size) const {
  // Compared against what is left: read_pos_ + size can wrap for an
  // untrusted on-wire size.
  if (size > data_.size() - read_pos_) {
    throw std::out_of_range("ByteBuffer: read past end (want " + std::to_string(size) +
                            " bytes, have " + std::to_string(data_.size() - read_pos_) + ")");
  }
}

void ByteBuffer::read_raw(void* dst, std::size_t size) {
  if (size == 0) {
    return;
  }
  check_available(size);
  std::memcpy(dst, data_.data() + read_pos_, size);
  read_pos_ += size;
}

std::string ByteBuffer::read_string() {
  const auto size = read<std::uint64_t>();
  check_available(size);
  std::string s(size, '\0');
  read_raw(s.data(), size);
  return s;
}

}  // namespace vira::util
