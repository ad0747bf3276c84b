#pragma once

/// \file isosurface.hpp
/// Cell triangulation for isosurface extraction (paper Sec. 6.3: "the
/// active cells are triangulated according to the intersection points with
/// the iso-value").
///
/// Triangulation uses marching tetrahedra over the standard 6-tetrahedron
/// cube decomposition sharing the 0–6 diagonal. This decomposition uses the
/// *same* face diagonal on both sides of every cell interface (and of every
/// block interface with matching node positions), so the extracted surface
/// is watertight across cells without an ambiguous-case table — the
/// property the streaming design depends on, since fragments triangulated
/// independently must still "be assembled directly from the partial data"
/// (Sec. 5.1). A property test verifies closed surfaces are edge-2-manifold.

#include <array>
#include <cstdint>
#include <string>

#include "algo/geometry.hpp"
#include "grid/bsp_tree.hpp"
#include "grid/structured_block.hpp"
#include "simd/simd.hpp"

namespace vira::algo {

/// The active-cell predicate, on a cell's 8 corner values: every corner is
/// finite, one is < iso and one is >= iso. A NaN or infinite sample marks
/// missing data, so the cells around it carry no surface and every vertex
/// the triangulator emits is finite. Both extraction paths use it:
/// simd::active_cell_mask computes it for a row of cells at once.
bool cell_is_active(const std::array<float, 8>& corners, float iso);

/// cell_is_active on the corners of cell (ci, cj, ck) of `field`.
bool cell_is_active(const grid::StructuredBlock& block, const std::string& field, float iso,
                    int ci, int cj, int ck);

/// Triangulates one cell, appending to `mesh`. Returns triangles added.
/// `with_normals` adds per-vertex shading normals from the field's metric-
/// term gradient, interpolated along the cut edges and oriented toward
/// increasing field values. Do not mix normal and bare fragments in one
/// mesh (TriangleMesh::merge rejects it).
std::size_t triangulate_cell(const grid::StructuredBlock& block, const std::string& field,
                             float iso, int ci, int cj, int ck, TriangleMesh& mesh,
                             bool with_normals = false);

/// Extracts over a cell range. Returns the number of active cells.
/// With `kernel == kSimd`, active cells are found by a vectorized per-row
/// straddle scan (simd::active_cell_mask) and only those are triangulated;
/// the emitted mesh is identical to the scalar path's, NaN samples included.
std::size_t extract_isosurface_range(const grid::StructuredBlock& block,
                                     const std::string& field, float iso,
                                     const grid::CellRange& range, TriangleMesh& mesh,
                                     bool with_normals = false,
                                     simd::Kernel kernel = simd::default_kernel());

/// Extracts over the whole block.
std::size_t extract_isosurface(const grid::StructuredBlock& block, const std::string& field,
                               float iso, TriangleMesh& mesh, bool with_normals = false,
                               simd::Kernel kernel = simd::default_kernel());

}  // namespace vira::algo
