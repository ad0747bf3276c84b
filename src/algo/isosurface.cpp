#include "algo/isosurface.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "simd/kernels.hpp"

namespace vira::algo {

namespace {

using grid::FieldId;
using grid::StructuredBlock;

/// Kuhn decomposition: six tetrahedra around the 0–6 main diagonal, one per
/// monotone edge path 0→6. Every cube face is cut by the diagonal through
/// its lowest-index corner pair, and adjacent cells agree on that diagonal
/// (verified in the watertightness property test).
constexpr int kTets[6][4] = {
    {0, 1, 2, 6}, {0, 1, 5, 6}, {0, 3, 2, 6},
    {0, 3, 7, 6}, {0, 4, 5, 6}, {0, 4, 7, 6},
};

/// (di,dj,dk) of the 8 cell corners in marching-cubes order — lets the
/// triangulator address corner nodes directly instead of recovering
/// (i,j,k) from flat indices with div/mod per corner.
constexpr int kCornerOffset[8][3] = {
    {0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
    {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
};

double edge_fraction(float sa, float sb, float iso) {
  return (static_cast<double>(iso) - sa) / (static_cast<double>(sb) - sa);
}

/// Triangulates one tetrahedron. `inside` means scalar < iso. When
/// `gradients` is non-null, each emitted vertex carries the interpolated
/// field gradient as its shading normal.
std::size_t triangulate_tet(const std::array<Vec3, 8>& pos, const std::array<float, 8>& scalar,
                            float iso, const int tet[4], TriangleMesh& mesh,
                            const std::array<Vec3, 8>* gradients) {
  int inside[4];
  int outside[4];
  int n_inside = 0;
  int n_outside = 0;
  for (int v = 0; v < 4; ++v) {
    if (scalar[tet[v]] < iso) {
      inside[n_inside++] = tet[v];
    } else {
      outside[n_outside++] = tet[v];
    }
  }
  if (n_inside == 0 || n_inside == 4) {
    return 0;
  }

  auto emit_vertex = [&](int a, int b) -> std::uint32_t {
    const double t = edge_fraction(scalar[a], scalar[b], iso);
    const Vec3 p = math::lerp(pos[a], pos[b], t);
    if (gradients != nullptr) {
      const Vec3 n = math::lerp((*gradients)[a], (*gradients)[b], t).normalized();
      return mesh.add_vertex(p, n);
    }
    return mesh.add_vertex(p);
  };
  auto emit_triangle = [&](std::pair<int, int> e0, std::pair<int, int> e1,
                           std::pair<int, int> e2) {
    mesh.add_triangle(emit_vertex(e0.first, e0.second), emit_vertex(e1.first, e1.second),
                      emit_vertex(e2.first, e2.second));
  };

  if (n_inside == 1) {
    emit_triangle({inside[0], outside[0]}, {inside[0], outside[1]}, {inside[0], outside[2]});
    return 1;
  }
  if (n_inside == 3) {
    emit_triangle({outside[0], inside[0]}, {outside[0], inside[1]}, {outside[0], inside[2]});
    return 1;
  }
  // Two in, two out: quad split into two triangles.
  emit_triangle({inside[0], outside[0]}, {inside[0], outside[1]}, {inside[1], outside[1]});
  emit_triangle({inside[0], outside[0]}, {inside[1], outside[1]}, {inside[1], outside[0]});
  return 2;
}

/// FieldId-resolved triangulation core; `values` is the field's node array.
std::size_t triangulate_cell_core(const StructuredBlock& block, FieldId field,
                                  std::span<const float> values, float iso, int ci, int cj,
                                  int ck, TriangleMesh& mesh, bool with_normals) {
  const auto corners = block.cell_corners(ci, cj, ck);

  std::array<float, 8> scalar;
  for (int v = 0; v < 8; ++v) {
    scalar[v] = values[corners[v]];
  }
  if (!cell_is_active(scalar, iso)) {
    return 0;
  }

  std::array<Vec3, 8> pos;
  std::array<Vec3, 8> gradients;
  for (int v = 0; v < 8; ++v) {
    const int i = ci + kCornerOffset[v][0];
    const int j = cj + kCornerOffset[v][1];
    const int k = ck + kCornerOffset[v][2];
    pos[v] = block.point(i, j, k);
    if (with_normals) {
      gradients[v] = block.scalar_gradient(field, i, j, k);
    }
  }

  std::size_t triangles = 0;
  for (const auto& tet : kTets) {
    triangles += triangulate_tet(pos, scalar, iso, tet, mesh,
                                 with_normals ? &gradients : nullptr);
  }
  return triangles;
}

}  // namespace

bool cell_is_active(const std::array<float, 8>& corners, float iso) {
  bool any_below = false;
  bool any_at_or_above = false;
  for (const float v : corners) {
    if (!std::isfinite(v)) {
      return false;
    }
    (v < iso ? any_below : any_at_or_above) = true;
  }
  return any_below && any_at_or_above;
}

bool cell_is_active(const StructuredBlock& block, const std::string& field, float iso, int ci,
                    int cj, int ck) {
  const auto values = block.scalar(field);
  const auto corners = block.cell_corners(ci, cj, ck);
  std::array<float, 8> scalar;
  for (int v = 0; v < 8; ++v) {
    scalar[v] = values[corners[v]];
  }
  return cell_is_active(scalar, iso);
}

std::size_t triangulate_cell(const StructuredBlock& block, const std::string& field, float iso,
                             int ci, int cj, int ck, TriangleMesh& mesh, bool with_normals) {
  const auto values = block.scalar(field);  // throws for unknown fields
  return triangulate_cell_core(block, block.field_id(field), values, iso, ci, cj, ck, mesh,
                               with_normals);
}

std::size_t extract_isosurface_range(const StructuredBlock& block, const std::string& field,
                                     float iso, const grid::CellRange& range, TriangleMesh& mesh,
                                     bool with_normals, simd::Kernel kernel) {
  const auto values = block.scalar(field);  // throws for unknown fields
  const FieldId id = block.field_id(field);
  std::size_t active = 0;

  if (kernel == simd::Kernel::kSimd) {
    // Vectorized straddle scan per cell row, then triangulate only the
    // masked cells. The mask predicate equals the triangulator's own
    // activity test, so the produced mesh is identical to the scalar path.
    const int ncells = range.i1 - range.i0;
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(std::max(ncells, 0)));
    for (int ck = range.k0; ck < range.k1; ++ck) {
      for (int cj = range.j0; cj < range.j1; ++cj) {
        const float* n00 = &values[block.node_index(range.i0, cj, ck)];
        const float* n01 = &values[block.node_index(range.i0, cj + 1, ck)];
        const float* n10 = &values[block.node_index(range.i0, cj, ck + 1)];
        const float* n11 = &values[block.node_index(range.i0, cj + 1, ck + 1)];
        simd::active_cell_mask(n00, n01, n10, n11, ncells, iso, mask.data());
        for (int c = 0; c < ncells; ++c) {
          if (mask[c] &&
              triangulate_cell_core(block, id, values, iso, range.i0 + c, cj, ck, mesh,
                                    with_normals) > 0) {
            ++active;
          }
        }
      }
    }
    return active;
  }

  for (int ck = range.k0; ck < range.k1; ++ck) {
    for (int cj = range.j0; cj < range.j1; ++cj) {
      for (int ci = range.i0; ci < range.i1; ++ci) {
        if (triangulate_cell_core(block, id, values, iso, ci, cj, ck, mesh, with_normals) >
            0) {
          ++active;
        }
      }
    }
  }
  return active;
}

std::size_t extract_isosurface(const StructuredBlock& block, const std::string& field, float iso,
                               TriangleMesh& mesh, bool with_normals, simd::Kernel kernel) {
  const grid::CellRange all{0, block.cells_i(), 0, block.cells_j(), 0, block.cells_k()};
  return extract_isosurface_range(block, field, iso, all, mesh, with_normals, kernel);
}

}  // namespace vira::algo
