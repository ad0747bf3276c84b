#include "grid/field_store.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <utility>

namespace vira::grid {

namespace {

float* aligned_floats(std::size_t floats) {
  auto* data = static_cast<float*>(std::aligned_alloc(kFieldAlignment, floats * sizeof(float)));
  if (data == nullptr) {
    throw std::bad_alloc();
  }
  return data;
}

/// The one slab a thread keeps for its next acquire_slab.
struct SlabSlot {
  SlabSlot() = default;
  SlabSlot(const SlabSlot&) = delete;
  SlabSlot& operator=(const SlabSlot&) = delete;
  ~SlabSlot() { std::free(slab); }

  float* slab = nullptr;
  std::size_t floats = 0;
};

/// Threads that never decode park slabs here too: a command thread drops
/// the blocks its pool threads decoded. The destructor frees the parked
/// slab when the thread exits.
thread_local SlabSlot t_slab_slot;

/// Deleter of acquire_slab's shared_ptr: parks the slab in the releasing
/// thread's slot, freeing the one parked there before.
struct RecycleSlab {
  std::size_t floats;
  void operator()(float* slab) const noexcept {
    SlabSlot& slot = t_slab_slot;
    std::free(slot.slab);
    slot.slab = slab;
    slot.floats = floats;
  }
};

}  // namespace

std::shared_ptr<float> acquire_slab(std::size_t floats) {
  SlabSlot& slot = t_slab_slot;
  float* slab = nullptr;
  if (slot.slab != nullptr && slot.floats == floats) {
    slab = std::exchange(slot.slab, nullptr);
  } else {
    slab = aligned_floats(floats);
  }
  return std::shared_ptr<float>(slab, RecycleSlab{floats});
}

void AlignedFloats::assign(std::size_t n, float fill) {
  const std::size_t padded = padded_floats(n);
  if (owner_ || padded != padded_) {
    release();
    if (padded > 0) {
      data_ = aligned_floats(padded);
    }
    padded_ = padded;
  }
  size_ = n;
  // Alignment contract (DESIGN.md §13): every field array starts on a
  // 64-byte boundary. Violations fail fast in debug builds.
  assert(reinterpret_cast<std::uintptr_t>(data_) % kFieldAlignment == 0);
  std::fill(data_, data_ + size_, fill);
  std::fill(data_ + size_, data_ + padded_, 0.0f);
}

void FieldStore::reset(std::int64_t nodes) {
  nodes_ = nodes;
  names_.clear();
  arrays_.clear();
  index_.clear();
}

FieldId FieldStore::find(std::string_view name) const {
  // Transparent lookup would avoid the temporary string; field counts are
  // tiny and find() is off the hot path now that callers hold FieldIds.
  const auto it = index_.find(std::string(name));
  return it == index_.end() ? kInvalidFieldId : it->second;
}

FieldId FieldStore::ensure(std::string_view name) {
  if (const FieldId existing = find(name); existing != kInvalidFieldId) {
    return existing;
  }
  const FieldId id = static_cast<FieldId>(arrays_.size());
  names_.emplace_back(name);
  arrays_.emplace_back(static_cast<std::size_t>(nodes_), 0.0f);
  index_.emplace(names_.back(), id);
  return id;
}

FieldId FieldStore::add(std::string_view name, AlignedFloats values) {
  if (has(name)) {
    throw std::invalid_argument("FieldStore::add: field '" + std::string(name) + "' exists");
  }
  if (values.size() != static_cast<std::size_t>(nodes_)) {
    throw std::invalid_argument("FieldStore::add: field size differs from the node count");
  }
  const FieldId id = static_cast<FieldId>(arrays_.size());
  names_.emplace_back(name);
  arrays_.push_back(std::move(values));
  index_.emplace(names_.back(), id);
  return id;
}

std::vector<std::string> FieldStore::sorted_names() const {
  std::vector<std::string> out = names_;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vira::grid
