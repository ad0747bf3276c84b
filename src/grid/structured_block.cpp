#include "grid/structured_block.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace vira::grid {

void trilinear_weights(double u, double v, double w, std::array<double, 8>& weights) {
  const double iu = 1.0 - u;
  const double iv = 1.0 - v;
  const double iw = 1.0 - w;
  weights[0] = iu * iv * iw;
  weights[1] = u * iv * iw;
  weights[2] = u * v * iw;
  weights[3] = iu * v * iw;
  weights[4] = iu * iv * w;
  weights[5] = u * iv * w;
  weights[6] = u * v * w;
  weights[7] = iu * v * w;
}

namespace {

/// Partial derivatives of the corner weights w.r.t. (u,v,w).
void corner_weight_gradients(double u, double v, double w, std::array<double, 8>& du,
                             std::array<double, 8>& dv, std::array<double, 8>& dw) {
  const double iu = 1.0 - u;
  const double iv = 1.0 - v;
  const double iw = 1.0 - w;
  du = {-iv * iw, iv * iw, v * iw, -v * iw, -iv * w, iv * w, v * w, -v * w};
  dv = {-iu * iw, -u * iw, u * iw, iu * iw, -iu * w, -u * w, u * w, iu * w};
  dw = {-iu * iv, -u * iv, -u * v, -iu * v, iu * iv, u * iv, u * v, iu * v};
}

constexpr std::uint32_t kBlockMagic = 0x564d4232;  // "VMB2"
/// Arrays every blob carries ahead of its scalars: px py pz vx vy vz.
constexpr std::uint64_t kGeometryArrays = 6;

/// Zero bytes that pad a blob's header out to a kFieldAlignment offset.
std::size_t header_pad(std::size_t header_bytes) {
  return (kFieldAlignment - header_bytes % kFieldAlignment) % kFieldAlignment;
}

}  // namespace

StructuredBlock::StructuredBlock(int ni, int nj, int nk) : ni_(ni), nj_(nj), nk_(nk) {
  if (ni < 2 || nj < 2 || nk < 2) {
    throw std::invalid_argument("StructuredBlock: each dimension needs >= 2 nodes");
  }
  const auto n = static_cast<std::size_t>(node_count());
  px_.assign(n, 0.0f);
  py_.assign(n, 0.0f);
  pz_.assign(n, 0.0f);
  vx_.assign(n, 0.0f);
  vy_.assign(n, 0.0f);
  vz_.assign(n, 0.0f);
  fields_.reset(node_count());
}

const Aabb& StructuredBlock::bounds() const {
  if (bounds_dirty_) {
    bounds_ = Aabb();
    const auto n = static_cast<std::size_t>(node_count());
    for (std::size_t idx = 0; idx < n; ++idx) {
      bounds_.expand({px_[idx], py_[idx], pz_[idx]});
    }
    bounds_dirty_ = false;
  }
  return bounds_;
}

std::span<const float> StructuredBlock::scalar(const std::string& name) const {
  return fields_.values(require_field(name));
}

FieldId StructuredBlock::require_field(const std::string& name) const {
  const FieldId id = fields_.find(name);
  if (id == kInvalidFieldId) {
    throw std::out_of_range("StructuredBlock: unknown scalar field '" + name + "'");
  }
  return id;
}

std::pair<float, float> StructuredBlock::scalar_range(const std::string& name) const {
  const auto values = scalar(name);
  float lo = std::numeric_limits<float>::max();
  float hi = std::numeric_limits<float>::lowest();
  for (const float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

std::array<std::int64_t, 8> StructuredBlock::cell_corners(int ci, int cj, int ck) const {
  return {node_index(ci, cj, ck),         node_index(ci + 1, cj, ck),
          node_index(ci + 1, cj + 1, ck), node_index(ci, cj + 1, ck),
          node_index(ci, cj, ck + 1),     node_index(ci + 1, cj, ck + 1),
          node_index(ci + 1, cj + 1, ck + 1), node_index(ci, cj + 1, ck + 1)};
}

Aabb StructuredBlock::cell_bounds(int ci, int cj, int ck) const {
  Aabb box;
  for (const auto corner : cell_corners(ci, cj, ck)) {
    box.expand(point_at(corner));
  }
  return box;
}

Vec3 StructuredBlock::interpolate_position(const CellCoord& c) const {
  std::array<double, 8> weights;
  trilinear_weights(c.u, c.v, c.w, weights);
  const auto corners = cell_corners(c.i, c.j, c.k);
  Vec3 p;
  for (int n = 0; n < 8; ++n) {
    p += point_at(corners[n]) * weights[n];
  }
  return p;
}

Vec3 StructuredBlock::interpolate_velocity(const CellCoord& c) const {
  std::array<double, 8> weights;
  trilinear_weights(c.u, c.v, c.w, weights);
  const auto corners = cell_corners(c.i, c.j, c.k);
  Vec3 u;
  for (int n = 0; n < 8; ++n) {
    u += velocity_at(corners[n]) * weights[n];
  }
  return u;
}

double StructuredBlock::interpolate_scalar(FieldId id, const CellCoord& c) const {
  std::array<double, 8> weights;
  trilinear_weights(c.u, c.v, c.w, weights);
  const auto corners = cell_corners(c.i, c.j, c.k);
  const auto values = fields_.values(id);
  double s = 0.0;
  for (int n = 0; n < 8; ++n) {
    s += static_cast<double>(values[corners[n]]) * weights[n];
  }
  return s;
}

std::optional<CellCoord> StructuredBlock::world_to_local(int ci, int cj, int ck, const Vec3& p,
                                                         double eps) const {
  CellCoord coord{ci, cj, ck, 0.5, 0.5, 0.5};
  const auto corners = cell_corners(ci, cj, ck);
  std::array<Vec3, 8> pts;
  for (int n = 0; n < 8; ++n) {
    pts[n] = point_at(corners[n]);
  }

  // Newton iteration on F(u,v,w) = X(u,v,w) - p.
  for (int iter = 0; iter < 25; ++iter) {
    std::array<double, 8> weights;
    trilinear_weights(coord.u, coord.v, coord.w, weights);
    Vec3 x;
    for (int n = 0; n < 8; ++n) {
      x += pts[n] * weights[n];
    }
    const Vec3 residual = x - p;
    if (residual.norm2() < 1e-24) {
      break;
    }

    std::array<double, 8> du;
    std::array<double, 8> dv;
    std::array<double, 8> dw;
    corner_weight_gradients(coord.u, coord.v, coord.w, du, dv, dw);
    Vec3 xu;
    Vec3 xv;
    Vec3 xw;
    for (int n = 0; n < 8; ++n) {
      xu += pts[n] * du[n];
      xv += pts[n] * dv[n];
      xw += pts[n] * dw[n];
    }
    const Mat3 jac = Mat3::from_cols(xu, xv, xw);
    if (std::fabs(jac.det()) < 1e-30) {
      return std::nullopt;  // degenerate cell
    }
    const Vec3 step = jac.inverse() * residual;
    coord.u -= step.x;
    coord.v -= step.y;
    coord.w -= step.z;
    // Keep the iterate in a sane neighbourhood of the cell.
    coord.u = std::clamp(coord.u, -0.5, 1.5);
    coord.v = std::clamp(coord.v, -0.5, 1.5);
    coord.w = std::clamp(coord.w, -0.5, 1.5);
    if (step.norm2() < 1e-26) {
      break;
    }
  }

  const double lo = -eps;
  const double hi = 1.0 + eps;
  if (coord.u < lo || coord.u > hi || coord.v < lo || coord.v > hi || coord.w < lo ||
      coord.w > hi) {
    return std::nullopt;
  }
  coord.u = std::clamp(coord.u, 0.0, 1.0);
  coord.v = std::clamp(coord.v, 0.0, 1.0);
  coord.w = std::clamp(coord.w, 0.0, 1.0);

  // Reject false positives of the clamped Newton iterate: the mapped-back
  // point must actually coincide with the query.
  const Vec3 mapped = interpolate_position(coord);
  const double scale = cell_bounds(ci, cj, ck).diagonal();
  if ((mapped - p).norm() > 1e-6 * (1.0 + scale)) {
    return std::nullopt;
  }
  return coord;
}

Mat3 StructuredBlock::position_jacobian(int i, int j, int k) const {
  auto central = [&](auto getter, int axis) -> Vec3 {
    int lo[3] = {i, j, k};
    int hi[3] = {i, j, k};
    const int dims[3] = {ni_, nj_, nk_};
    double h = 2.0;
    if (lo[axis] > 0) {
      --lo[axis];
    } else {
      h -= 1.0;
    }
    if (hi[axis] < dims[axis] - 1) {
      ++hi[axis];
    } else {
      h -= 1.0;
    }
    const Vec3 a = getter(lo[0], lo[1], lo[2]);
    const Vec3 b = getter(hi[0], hi[1], hi[2]);
    return (b - a) / h;
  };
  auto pos = [&](int a, int b, int c) { return point(a, b, c); };
  return Mat3::from_cols(central(pos, 0), central(pos, 1), central(pos, 2));
}

Mat3 StructuredBlock::velocity_gradient(int i, int j, int k) const {
  auto central = [&](int axis) -> Vec3 {
    int lo[3] = {i, j, k};
    int hi[3] = {i, j, k};
    const int dims[3] = {ni_, nj_, nk_};
    double h = 2.0;
    if (lo[axis] > 0) {
      --lo[axis];
    } else {
      h -= 1.0;
    }
    if (hi[axis] < dims[axis] - 1) {
      ++hi[axis];
    } else {
      h -= 1.0;
    }
    const Vec3 a = velocity(lo[0], lo[1], lo[2]);
    const Vec3 b = velocity(hi[0], hi[1], hi[2]);
    return (b - a) / h;
  };

  // F[c][axis] = du_c/dξ_axis; J[c][axis] = dx_c/dξ_axis.
  const Mat3 f = Mat3::from_cols(central(0), central(1), central(2));
  const Mat3 jac = position_jacobian(i, j, k);
  return f * jac.inverse();  // du_i/dx_j
}

Vec3 StructuredBlock::scalar_gradient(FieldId id, int i, int j, int k) const {
  const auto values = fields_.values(id);
  auto central = [&](int axis) -> double {
    int lo[3] = {i, j, k};
    int hi[3] = {i, j, k};
    const int dims[3] = {ni_, nj_, nk_};
    double h = 2.0;
    if (lo[axis] > 0) {
      --lo[axis];
    } else {
      h -= 1.0;
    }
    if (hi[axis] < dims[axis] - 1) {
      ++hi[axis];
    } else {
      h -= 1.0;
    }
    return (static_cast<double>(values[node_index(hi[0], hi[1], hi[2])]) -
            static_cast<double>(values[node_index(lo[0], lo[1], lo[2])])) /
           h;
  };
  // ds/dx_j = Σ_k (ds/dξ_k)(J⁻¹)[k][j]
  const Vec3 dxi{central(0), central(1), central(2)};
  const Mat3 inv = position_jacobian(i, j, k).inverse();
  return {dxi.x * inv(0, 0) + dxi.y * inv(1, 0) + dxi.z * inv(2, 0),
          dxi.x * inv(0, 1) + dxi.y * inv(1, 1) + dxi.z * inv(2, 1),
          dxi.x * inv(0, 2) + dxi.y * inv(1, 2) + dxi.z * inv(2, 2)};
}

StructuredBlock StructuredBlock::coarsened(int stride) const {
  if (stride < 1) {
    throw std::invalid_argument("StructuredBlock::coarsened: stride must be >= 1");
  }
  auto pick_indices = [stride](int n) {
    std::vector<int> indices;
    for (int i = 0; i < n - 1; i += stride) {
      indices.push_back(i);
    }
    indices.push_back(n - 1);
    return indices;
  };
  const auto is = pick_indices(ni_);
  const auto js = pick_indices(nj_);
  const auto ks = pick_indices(nk_);

  StructuredBlock coarse(static_cast<int>(is.size()), static_cast<int>(js.size()),
                         static_cast<int>(ks.size()));
  coarse.block_id_ = block_id_;
  coarse.time_ = time_;
  const auto names = scalar_names();
  std::vector<std::pair<std::span<const float>, std::span<float>>> field_pairs;
  field_pairs.reserve(names.size());
  for (const auto& name : names) {
    const auto src = fields_.values(fields_.find(name));
    field_pairs.emplace_back(src, coarse.scalar(name));
  }
  for (std::size_t kk = 0; kk < ks.size(); ++kk) {
    for (std::size_t jj = 0; jj < js.size(); ++jj) {
      for (std::size_t ii = 0; ii < is.size(); ++ii) {
        const int si = is[ii];
        const int sj = js[jj];
        const int sk = ks[kk];
        const int di = static_cast<int>(ii);
        const int dj = static_cast<int>(jj);
        const int dk = static_cast<int>(kk);
        coarse.set_point(di, dj, dk, point(si, sj, sk));
        coarse.set_velocity(di, dj, dk, velocity(si, sj, sk));
        const auto src_node = node_index(si, sj, sk);
        const auto dst_node = coarse.node_index(di, dj, dk);
        for (auto& [src, dst] : field_pairs) {
          dst[dst_node] = src[src_node];
        }
      }
    }
  }
  return coarse;
}

void StructuredBlock::serialize(util::ByteBuffer& out) const {
  // VMB2: header, zero pad to a 64-byte offset from the blob's start, then
  // px py pz vx vy vz and the scalars in name order, each padded_size()
  // floats with its zero pad: FieldStore's memory layout, so a decode is
  // one copy (see deserialize).
  const std::size_t start = out.size();
  out.write<std::uint32_t>(kBlockMagic);
  out.write<std::int32_t>(ni_);
  out.write<std::int32_t>(nj_);
  out.write<std::int32_t>(nk_);
  out.write<std::int32_t>(block_id_);
  out.write<double>(time_);
  const auto names = fields_.sorted_names();
  out.write<std::uint32_t>(static_cast<std::uint32_t>(names.size()));
  for (const auto& name : names) {
    out.write_string(name);
  }
  static constexpr std::byte kZeros[kFieldAlignment] = {};
  out.write_raw(kZeros, header_pad(out.size() - start));
  for (const AlignedFloats* array : {&px_, &py_, &pz_, &vx_, &vy_, &vz_}) {
    out.write_raw(array->data(), array->padded_size() * sizeof(float));
  }
  for (const auto& name : names) {
    const AlignedFloats& array = fields_.array(fields_.find(name));
    out.write_raw(array.data(), array.padded_size() * sizeof(float));
  }
}

StructuredBlock StructuredBlock::deserialize(util::ByteBuffer& in) {
  // Decode through a cursor over the unread bytes, then advance the
  // buffer's read position by what the cursor consumed so call sites that
  // keep reading past the block still work.
  util::ByteReader reader(in);
  StructuredBlock block = deserialize(reader);
  in.seek(in.read_pos() + reader.pos());
  return block;
}

StructuredBlock StructuredBlock::deserialize(util::ByteReader& in) {
  const std::size_t start = in.pos();
  if (in.read<std::uint32_t>() != kBlockMagic) {
    throw std::runtime_error("StructuredBlock::deserialize: bad magic");
  }
  StructuredBlock block;
  block.ni_ = in.read<std::int32_t>();
  block.nj_ = in.read<std::int32_t>();
  block.nk_ = in.read<std::int32_t>();
  block.block_id_ = in.read<std::int32_t>();
  block.time_ = in.read<double>();
  if (block.ni_ < 2 || block.nj_ < 2 || block.nk_ < 2) {
    throw std::runtime_error("StructuredBlock::deserialize: each dimension needs >= 2 nodes");
  }
  const auto nscalars = in.read<std::uint32_t>();
  // Every name costs at least its 8-byte length, so a count the bytes
  // cannot hold is refused before anything is sized by it.
  if (nscalars > in.remaining() / sizeof(std::uint64_t)) {
    throw std::out_of_range("StructuredBlock::deserialize: scalar count exceeds the blob");
  }
  std::vector<std::string> names;
  names.reserve(nscalars);
  for (std::uint32_t s = 0; s < nscalars; ++s) {
    names.push_back(in.read_string());
    if (s > 0 && !(names[s - 1] < names[s])) {
      throw std::runtime_error("StructuredBlock::deserialize: scalar names not sorted");
    }
  }
  in.view(header_pad(in.pos() - start));

  // Size the field region against the bytes present before allocating:
  // the blob may come from a peer, and ni*nj*nk of garbage dims overflows.
  const std::uint64_t arrays = kGeometryArrays + nscalars;
  const std::uint64_t max_floats = in.remaining() / sizeof(float) / arrays;
  const std::uint64_t plane = static_cast<std::uint64_t>(block.ni_) * block.nj_;
  if (plane > max_floats / static_cast<std::uint64_t>(block.nk_)) {
    throw std::out_of_range("StructuredBlock::deserialize: dimensions exceed the blob");
  }
  const auto nodes = static_cast<std::size_t>(plane * block.nk_);
  const std::size_t padded = padded_floats(nodes);
  const auto region = in.view(padded * arrays * sizeof(float));

  // One copy into one slab; every field is a slice of it. Pads are zeroed
  // again so the kernels' pad contract holds whatever the blob carried.
  auto slab = acquire_slab(padded * arrays);
  std::memcpy(slab.get(), region.data(), region.size());
  float* cursor = slab.get();
  const auto take = [&] {
    std::fill(cursor + nodes, cursor + padded, 0.0f);
    auto array = AlignedFloats::slice(slab, cursor, nodes);
    cursor += padded;
    return array;
  };
  for (AlignedFloats* array :
       {&block.px_, &block.py_, &block.pz_, &block.vx_, &block.vy_, &block.vz_}) {
    *array = take();
  }
  block.fields_.reset(block.node_count());
  for (const auto& name : names) {
    block.fields_.add(name, take());
  }
  return block;
}

std::uint64_t StructuredBlock::serialized_size() const {
  std::uint64_t header = 4 + 4 * 4 + 8 + 4;  // magic, dims, id, time, scalar count
  const auto names = fields_.sorted_names();
  for (const auto& name : names) {
    header += 8 + name.size();
  }
  header += header_pad(header);
  const auto padded = static_cast<std::uint64_t>(padded_floats(static_cast<std::size_t>(node_count())));
  return header + (kGeometryArrays + names.size()) * padded * sizeof(float);
}

}  // namespace vira::grid
