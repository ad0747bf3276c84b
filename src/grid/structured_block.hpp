#pragma once

/// \file structured_block.hpp
/// Curvilinear structured grid block — the unit of CFD data in Viracocha.
///
/// The paper's datasets are "multi-block data sets consisting of several
/// curvilinear blocks" (Sec. 6.1). A block is a logically Cartesian grid of
/// ni×nj×nk nodes; every node carries a world position, a velocity vector
/// and any number of named scalar fields (pressure, density, λ2, ...).
/// Storage is float (as CFD solver output typically is); all computations
/// are performed in double.
///
/// Storage is structure-of-arrays (DESIGN.md §13): positions and velocity
/// are split into per-component arrays (x[], y[], z[]) and every named
/// scalar is its own array, all 64-byte aligned and padded via
/// grid::FieldStore so the extraction kernels vectorize. Scalar fields are
/// addressed either by name (convenience, hash lookup) or by an interned
/// FieldId handle (hot loops — plain array index, no lookup).
///
/// A block serializes to a flat byte blob — that blob is exactly the "data
/// item" the DMS caches and ships between nodes without understanding its
/// structure (Sec. 4: raw data and manipulation methods are separated).
/// The blob (format VMB2) carries the SoA layout itself: a header, then
/// every array with its zero pad from a 64-byte offset, scalars in
/// name-sorted order. Decoding is one copy into one recycled slab.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "grid/field_store.hpp"
#include "math/aabb.hpp"
#include "math/mat3.hpp"
#include "math/vec3.hpp"
#include "util/byte_buffer.hpp"

namespace vira::grid {

using math::Aabb;
using math::Mat3;
using math::Vec3;

/// Trilinear corner weights of local coordinates (u,v,w), marching-cubes
/// corner order — the interpolation basis used by interpolate_* and by the
/// batched gather path in BlockSampler.
void trilinear_weights(double u, double v, double w, std::array<double, 8>& weights);

/// Local coordinates inside one hexahedral cell, each in [0,1].
struct CellCoord {
  int i = 0;
  int j = 0;
  int k = 0;
  double u = 0.0;
  double v = 0.0;
  double w = 0.0;
};

class StructuredBlock {
 public:
  StructuredBlock() = default;
  StructuredBlock(int ni, int nj, int nk);

  /// --- topology -----------------------------------------------------------
  int ni() const noexcept { return ni_; }
  int nj() const noexcept { return nj_; }
  int nk() const noexcept { return nk_; }
  std::int64_t node_count() const noexcept {
    return static_cast<std::int64_t>(ni_) * nj_ * nk_;
  }
  std::int64_t cell_count() const noexcept {
    return static_cast<std::int64_t>(ni_ - 1) * (nj_ - 1) * (nk_ - 1);
  }
  int cells_i() const noexcept { return ni_ - 1; }
  int cells_j() const noexcept { return nj_ - 1; }
  int cells_k() const noexcept { return nk_ - 1; }

  std::int64_t node_index(int i, int j, int k) const noexcept {
    return (static_cast<std::int64_t>(k) * nj_ + j) * ni_ + i;
  }

  /// --- identity -----------------------------------------------------------
  int block_id() const noexcept { return block_id_; }
  void set_block_id(int id) noexcept { block_id_ = id; }
  double time() const noexcept { return time_; }
  void set_time(double t) noexcept { time_ = t; }

  /// --- geometry -----------------------------------------------------------
  Vec3 point(int i, int j, int k) const {
    const auto idx = node_index(i, j, k);
    return {px_[idx], py_[idx], pz_[idx]};
  }
  Vec3 point_at(std::int64_t node) const {
    return {px_[node], py_[node], pz_[node]};
  }
  void set_point(int i, int j, int k, const Vec3& p) {
    const auto idx = node_index(i, j, k);
    px_[idx] = static_cast<float>(p.x);
    py_[idx] = static_cast<float>(p.y);
    pz_[idx] = static_cast<float>(p.z);
    bounds_dirty_ = true;
  }

  /// SoA position components (64-byte aligned, padded; see FieldStore).
  std::span<const float> points_x() const { return px_.span(); }
  std::span<const float> points_y() const { return py_.span(); }
  std::span<const float> points_z() const { return pz_.span(); }

  /// Bounding box over all nodes (cached; recomputed after edits).
  const Aabb& bounds() const;

  /// --- velocity -----------------------------------------------------------
  Vec3 velocity(int i, int j, int k) const {
    const auto idx = node_index(i, j, k);
    return {vx_[idx], vy_[idx], vz_[idx]};
  }
  Vec3 velocity_at(std::int64_t node) const {
    return {vx_[node], vy_[node], vz_[node]};
  }
  void set_velocity(int i, int j, int k, const Vec3& u) {
    const auto idx = node_index(i, j, k);
    vx_[idx] = static_cast<float>(u.x);
    vy_[idx] = static_cast<float>(u.y);
    vz_[idx] = static_cast<float>(u.z);
  }

  /// SoA velocity components.
  std::span<const float> velocity_x() const { return vx_.span(); }
  std::span<const float> velocity_y() const { return vy_.span(); }
  std::span<const float> velocity_z() const { return vz_.span(); }

  /// --- named node scalars --------------------------------------------------
  bool has_scalar(const std::string& name) const { return fields_.has(name); }
  /// Names in sorted order (also the serialization order).
  std::vector<std::string> scalar_names() const { return fields_.sorted_names(); }

  /// Interned handle for a field, or kInvalidFieldId when absent. Resolve
  /// once outside the loop, then use the FieldId overloads per node.
  FieldId field_id(const std::string& name) const { return fields_.find(name); }
  /// Interns `name`, creating a zero-filled field on first use.
  FieldId ensure_field(const std::string& name) { return fields_.ensure(name); }

  std::span<float> field_values(FieldId id) { return fields_.values(id); }
  std::span<const float> field_values(FieldId id) const { return fields_.values(id); }

  /// Creates the field (zero-filled) if absent. The span stays valid for
  /// the lifetime of the block (field arrays never move once created).
  std::span<float> scalar(const std::string& name) {
    return fields_.values(fields_.ensure(name));
  }
  std::span<const float> scalar(const std::string& name) const;

  float scalar_at(FieldId id, int i, int j, int k) const {
    return fields_.values(id)[node_index(i, j, k)];
  }
  void set_scalar_at(FieldId id, int i, int j, int k, float value) {
    fields_.values(id)[node_index(i, j, k)] = value;
  }
  float scalar_at(const std::string& name, int i, int j, int k) const {
    return scalar(name)[node_index(i, j, k)];
  }
  void set_scalar_at(const std::string& name, int i, int j, int k, float value) {
    scalar(name)[node_index(i, j, k)] = value;
  }
  /// Min/max of a scalar field over the block.
  std::pair<float, float> scalar_range(const std::string& name) const;

  /// --- cell access ----------------------------------------------------------
  /// Corner node indices of cell (ci,cj,ck) in marching-cubes order:
  /// 0:(i,j,k) 1:(i+1,j,k) 2:(i+1,j+1,k) 3:(i,j+1,k)
  /// 4:(i,j,k+1) 5:(i+1,j,k+1) 6:(i+1,j+1,k+1) 7:(i,j+1,k+1)
  std::array<std::int64_t, 8> cell_corners(int ci, int cj, int ck) const;

  Aabb cell_bounds(int ci, int cj, int ck) const;

  /// --- interpolation ----------------------------------------------------------
  /// Trilinear position inside a cell.
  Vec3 interpolate_position(const CellCoord& c) const;
  /// Trilinear velocity inside a cell.
  Vec3 interpolate_velocity(const CellCoord& c) const;
  /// Trilinear scalar inside a cell.
  double interpolate_scalar(FieldId id, const CellCoord& c) const;
  double interpolate_scalar(const std::string& name, const CellCoord& c) const {
    return interpolate_scalar(require_field(name), c);
  }

  /// Inverts the trilinear map of cell (ci,cj,ck): finds (u,v,w) with
  /// X(u,v,w) = p via Newton iteration. Returns the coordinate if the point
  /// lies inside the cell (within `eps` in local space), nullopt otherwise.
  std::optional<CellCoord> world_to_local(int ci, int cj, int ck, const Vec3& p,
                                          double eps = 1e-9) const;

  /// --- derivatives --------------------------------------------------------
  /// Velocity gradient tensor G(i,j) = ∂u_i/∂x_j at a node, computed from
  /// computational-space finite differences and the inverse metric Jacobian
  /// (central differences inside, one-sided at block faces).
  Mat3 velocity_gradient(int i, int j, int k) const;

  /// Spatial gradient ∇s of a node scalar at a node (same metric-term
  /// scheme as velocity_gradient). Drives isosurface normals.
  Vec3 scalar_gradient(FieldId id, int i, int j, int k) const;
  Vec3 scalar_gradient(const std::string& name, int i, int j, int k) const {
    return scalar_gradient(require_field(name), i, j, k);
  }

  /// --- multiresolution (Sec. 5.3) -------------------------------------------
  /// Subsampled copy taking every `stride`-th node in each direction
  /// (boundary nodes always kept) — the coarse level for progressive
  /// computation.
  StructuredBlock coarsened(int stride) const;

  /// --- serialization ----------------------------------------------------------
  /// Appends the VMB2 blob: magic "VMB2", ni nj nk, block id, time, scalar
  /// count and sorted scalar names, zero-padded to a 64-byte offset from
  /// the blob's start; then px py pz vx vy vz and the scalars in name order,
  /// each as padded_size() floats.
  void serialize(util::ByteBuffer& out) const;
  /// Decodes one blob at the buffer's read position and advances it.
  static StructuredBlock deserialize(util::ByteBuffer& in);
  /// Decodes one blob at the cursor (e.g. straight over a cached DMS blob):
  /// checks the header against the bytes present, copies the whole field
  /// region once into a slab from acquire_slab, re-zeroes every pad and
  /// points each field at its slice. Throws std::runtime_error for a
  /// foreign or malformed header and std::out_of_range for a blob shorter
  /// than its header claims, before allocating anything sized by it.
  static StructuredBlock deserialize(util::ByteReader& in);

  /// Bytes the serialized form occupies (header + payloads).
  std::uint64_t serialized_size() const;

 private:
  Mat3 position_jacobian(int i, int j, int k) const;
  /// field_id that throws std::out_of_range for unknown names (the
  /// contract the old map-based const scalar() accessor had).
  FieldId require_field(const std::string& name) const;

  int ni_ = 0;
  int nj_ = 0;
  int nk_ = 0;
  int block_id_ = -1;
  double time_ = 0.0;
  AlignedFloats px_, py_, pz_;
  AlignedFloats vx_, vy_, vz_;
  FieldStore fields_;

  mutable Aabb bounds_;
  mutable bool bounds_dirty_ = true;
};

}  // namespace vira::grid
