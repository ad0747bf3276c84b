#pragma once

/// \file field_store.hpp
/// Structure-of-arrays node-field storage (DESIGN.md §13).
///
/// Every node field of a block — the three position components, the three
/// velocity components and any number of named scalars — lives in its own
/// contiguous float array, 64-byte aligned and padded to a multiple of 16
/// floats (one cache line). The SIMD extraction kernels rely on this
/// contract: vector loads never straddle an allocation boundary, and a
/// final partial vector can read (never write beyond the logical size
/// except into the zeroed pad) without masking.
///
/// Field names are interned to small integer FieldId handles at
/// registration time, so the per-node hot loops index plain arrays instead
/// of walking a std::map<std::string, ...> per access — the lookup cost the
/// old array-of-structs layout paid in scalar_at/interpolate_scalar.
///
/// The block blob (StructuredBlock::serialize) carries the same layout: each
/// array with its zero pad, one after another from a 64-byte offset. A
/// decode copies that whole region once into one slab (acquire_slab) and
/// points every array at its slice of it.

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace vira::grid {

/// Alignment of every field array, in bytes (one cache line; also the
/// natural alignment for 512-bit vector loads).
inline constexpr std::size_t kFieldAlignment = 64;
/// Field arrays are padded to a multiple of this many floats (= one
/// 64-byte line), zero-filled beyond the logical size.
inline constexpr std::size_t kFieldPadFloats = kFieldAlignment / sizeof(float);

/// Interned handle for a named node field; index into the store's arrays.
using FieldId = std::uint32_t;
inline constexpr FieldId kInvalidFieldId = 0xffffffffu;

/// Floats an array of logical size `n` occupies: `n` rounded up to a
/// multiple of kFieldPadFloats.
inline std::size_t padded_floats(std::size_t n) {
  return (n + kFieldPadFloats - 1) / kFieldPadFloats * kFieldPadFloats;
}

/// A 64-byte-aligned allocation of `floats` floats (contents undefined) that
/// several AlignedFloats slices share. When the last owner lets go, the slab
/// goes back to a one-entry slot of the thread that let go, and that thread's
/// next acquire_slab of the same size reuses it instead of asking malloc;
/// the slot is freed at thread exit. Recycling keeps a decode from leaving
/// a freed slab per block in malloc's arenas, which shows as peak RSS.
std::shared_ptr<float> acquire_slab(std::size_t floats);

/// A 64-byte-aligned, pad-to-cache-line float array. The logical size is
/// what the grid sees; the physical allocation rounds up to kFieldPadFloats
/// and keeps the pad zeroed so unmasked SIMD tails are safe to read.
///
/// The array either owns its allocation or is a slice of a shared slab
/// (slice()). A slice is never shared between two blocks, so writing
/// through it is safe. Copying either kind gives an owned deep copy; a move
/// keeps the slab owner; assign() on a slice first drops the slice.
class AlignedFloats {
 public:
  AlignedFloats() = default;
  explicit AlignedFloats(std::size_t n, float fill = 0.0f) { assign(n, fill); }
  ~AlignedFloats() { release(); }

  /// Views `n` floats at `data` (64-byte aligned, followed by a zeroed pad
  /// to padded_floats(n)) inside the slab `owner` keeps alive.
  static AlignedFloats slice(std::shared_ptr<float> owner, float* data, std::size_t n) {
    AlignedFloats out;
    out.data_ = data;
    out.size_ = n;
    out.padded_ = padded_floats(n);
    out.owner_ = std::move(owner);
    return out;
  }

  AlignedFloats(const AlignedFloats& other) { *this = other; }
  AlignedFloats& operator=(const AlignedFloats& other) {
    if (this != &other) {
      assign(other.size_, 0.0f);
      if (size_ > 0) {
        std::memcpy(data_, other.data_, size_ * sizeof(float));
      }
    }
    return *this;
  }
  AlignedFloats(AlignedFloats&& other) noexcept
      : data_(other.data_),
        size_(other.size_),
        padded_(other.padded_),
        owner_(std::move(other.owner_)) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.padded_ = 0;
  }
  AlignedFloats& operator=(AlignedFloats&& other) noexcept {
    if (this != &other) {
      release();
      data_ = other.data_;
      size_ = other.size_;
      padded_ = other.padded_;
      owner_ = std::move(other.owner_);
      other.data_ = nullptr;
      other.size_ = 0;
      other.padded_ = 0;
    }
    return *this;
  }

  /// Reallocates to logical size `n`, filling every float (pad included
  /// beyond `n`, which stays zero) so the array starts deterministic.
  void assign(std::size_t n, float fill);

  float* data() noexcept { return data_; }
  const float* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  /// Physical element count: size() rounded up to kFieldPadFloats.
  std::size_t padded_size() const noexcept { return padded_; }
  bool empty() const noexcept { return size_ == 0; }

  float& operator[](std::size_t i) noexcept { return data_[i]; }
  const float& operator[](std::size_t i) const noexcept { return data_[i]; }

  std::span<float> span() noexcept { return {data_, size_}; }
  std::span<const float> span() const noexcept { return {data_, size_}; }

 private:
  void release() noexcept {
    if (owner_) {
      owner_.reset();
    } else {
      std::free(data_);
    }
    data_ = nullptr;
    padded_ = 0;
  }

  float* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t padded_ = 0;
  std::shared_ptr<float> owner_;  ///< set iff data_ is a slice of a shared slab
};

/// Name-interning structure-of-arrays store for the named node scalars of
/// one block. Ids are dense (0..field_count-1) in registration order;
/// registration order is an in-memory detail only — serialization walks
/// fields in sorted-name order to keep the wire blob stable.
class FieldStore {
 public:
  FieldStore() = default;
  explicit FieldStore(std::int64_t nodes) : nodes_(nodes) {}

  /// Node count every field array is sized for. Changing it drops all
  /// fields (a block's topology never changes after construction).
  void reset(std::int64_t nodes);
  std::int64_t nodes() const noexcept { return nodes_; }

  std::size_t field_count() const noexcept { return arrays_.size(); }

  /// Id of `name`, or kInvalidFieldId when the field does not exist.
  FieldId find(std::string_view name) const;
  bool has(std::string_view name) const { return find(name) != kInvalidFieldId; }

  /// Interns `name`, creating a zero-filled field on first use.
  FieldId ensure(std::string_view name);
  /// Interns a new field `name` holding `values` (nodes() floats).
  FieldId add(std::string_view name, AlignedFloats values);

  const std::string& name(FieldId id) const { return names_[id]; }
  /// Field names in sorted order (the serialization order).
  std::vector<std::string> sorted_names() const;

  std::span<float> values(FieldId id) { return arrays_[id].span(); }
  std::span<const float> values(FieldId id) const { return arrays_[id].span(); }
  AlignedFloats& array(FieldId id) { return arrays_[id]; }
  const AlignedFloats& array(FieldId id) const { return arrays_[id]; }

 private:
  std::int64_t nodes_ = 0;
  std::vector<std::string> names_;
  std::vector<AlignedFloats> arrays_;
  std::unordered_map<std::string, FieldId> index_;
};

}  // namespace vira::grid
