#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>

#include "algo/block_sampler.hpp"
#include "algo/cfd_command.hpp"
#include "algo/geometry.hpp"
#include "algo/integrator.hpp"
#include "algo/isosurface.hpp"
#include "algo/lambda2.hpp"
#include "algo/payloads.hpp"
#include "grid/synthetic.hpp"
#include "util/rng.hpp"

namespace va = vira::algo;
namespace vg = vira::grid;
namespace vm = vira::math;

namespace {

/// Box block [0,1]^3 with a scalar field f(p).
vg::StructuredBlock field_block(int n, const std::function<double(const vm::Vec3&)>& f,
                                const std::string& name = "s", double perturb = 0.0,
                                std::uint64_t seed = 3) {
  vg::StructuredBlock block(n, n, n);
  vira::util::Rng rng(seed);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        vm::Vec3 p{static_cast<double>(i) / (n - 1), static_cast<double>(j) / (n - 1),
                   static_cast<double>(k) / (n - 1)};
        const bool interior = i > 0 && i < n - 1 && j > 0 && j < n - 1 && k > 0 && k < n - 1;
        if (interior && perturb > 0.0) {
          p += vm::Vec3{rng.uniform(-perturb, perturb), rng.uniform(-perturb, perturb),
                        rng.uniform(-perturb, perturb)};
        }
        block.set_point(i, j, k, p);
        block.set_scalar_at(name, i, j, k, static_cast<float>(f(p)));
      }
    }
  }
  return block;
}

/// Counts boundary edges (edges used by exactly one triangle) after
/// welding. A closed surface must have zero.
std::size_t boundary_edge_count(va::TriangleMesh mesh) {
  mesh.weld(1e-7);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> edge_use;
  for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
    const auto tri = mesh.triangle(t);
    for (int e = 0; e < 3; ++e) {
      auto a = tri[e];
      auto b = tri[(e + 1) % 3];
      if (a > b) {
        std::swap(a, b);
      }
      if (a != b) {
        ++edge_use[{a, b}];
      }
    }
  }
  std::size_t boundary = 0;
  for (const auto& [edge, count] : edge_use) {
    if (count == 1) {
      ++boundary;
    }
  }
  return boundary;
}

}  // namespace

// ---------------------------------------------------------------------------
// TriangleMesh / PolylineSet
// ---------------------------------------------------------------------------

TEST(TriangleMesh, AddAndMerge) {
  va::TriangleMesh a;
  a.add_triangle({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
  va::TriangleMesh b;
  b.add_triangle({0, 0, 1}, {1, 0, 1}, {0, 1, 1});
  a.merge(b);
  EXPECT_EQ(a.triangle_count(), 2u);
  EXPECT_EQ(a.vertex_count(), 6u);
  EXPECT_NEAR(a.surface_area(), 1.0, 1e-12);
  const auto tri = a.triangle(1);
  EXPECT_EQ(tri[0], 3u);  // indices shifted by merge
}

TEST(TriangleMesh, WeldMergesDuplicates) {
  va::TriangleMesh mesh;
  // Two triangles sharing an edge, added as soup (6 vertices, 2 shared).
  mesh.add_triangle({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
  mesh.add_triangle({1, 0, 0}, {1, 1, 0}, {0, 1, 0});
  const auto removed = mesh.weld();
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(mesh.vertex_count(), 4u);
  EXPECT_EQ(mesh.triangle_count(), 2u);
}

TEST(TriangleMesh, SerializationRoundTrip) {
  va::TriangleMesh mesh;
  mesh.add_triangle({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
  vira::util::ByteBuffer buf;
  mesh.serialize(buf);
  const auto restored = va::TriangleMesh::deserialize(buf);
  EXPECT_EQ(restored.triangle_count(), 1u);
  EXPECT_NEAR(restored.surface_area(), 0.5, 1e-9);
}

TEST(TriangleMesh, DeserializeRejectsBadIndices) {
  vira::util::ByteBuffer buf;
  buf.write_vector<float>({0, 0, 0});             // one vertex
  buf.write_vector<float>({});                    // no normals
  buf.write_vector<std::uint32_t>({0, 1, 2});     // refers to missing vertices
  EXPECT_THROW(va::TriangleMesh::deserialize(buf), std::runtime_error);
}

TEST(TriangleMesh, DeserializeRejectsNormalCountMismatch) {
  vira::util::ByteBuffer buf;
  buf.write_vector<float>({0, 0, 0, 1, 0, 0, 0, 1, 0});  // three vertices
  buf.write_vector<float>({0, 0, 1});                    // only one normal
  buf.write_vector<std::uint32_t>({0, 1, 2});
  EXPECT_THROW(va::TriangleMesh::deserialize(buf), std::runtime_error);
}

TEST(TriangleMesh, NormalsSurviveMergeWeldAndSerialization) {
  va::TriangleMesh a;
  a.add_triangle(a.add_vertex({0, 0, 0}, {0, 0, 1}), a.add_vertex({1, 0, 0}, {0, 0, 1}),
                 a.add_vertex({0, 1, 0}, {0, 0, 1}));
  va::TriangleMesh b;
  b.add_triangle(b.add_vertex({1, 0, 0}, {0, 0, 1}), b.add_vertex({1, 1, 0}, {0, 0, 1}),
                 b.add_vertex({0, 1, 0}, {0, 0, 1}));
  a.merge(b);
  ASSERT_TRUE(a.has_normals());
  a.weld();
  EXPECT_EQ(a.vertex_count(), 4u);
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    EXPECT_NEAR((a.normal(v) - vm::Vec3{0, 0, 1}).norm(), 0.0, 1e-6);
  }
  vira::util::ByteBuffer buf;
  a.serialize(buf);
  const auto restored = va::TriangleMesh::deserialize(buf);
  ASSERT_TRUE(restored.has_normals());
  EXPECT_NEAR(restored.normal(0).z, 1.0, 1e-6);
}

TEST(TriangleMesh, MergeRejectsMixedNormalPresence) {
  va::TriangleMesh with;
  with.add_triangle(with.add_vertex({0, 0, 0}, {0, 0, 1}), with.add_vertex({1, 0, 0}, {0, 0, 1}),
                    with.add_vertex({0, 1, 0}, {0, 0, 1}));
  va::TriangleMesh without;
  without.add_triangle({0, 0, 1}, {1, 0, 1}, {0, 1, 1});
  EXPECT_THROW(with.merge(without), std::logic_error);
}

TEST(TriangleMesh, ObjExport) {
  va::TriangleMesh mesh;
  mesh.add_triangle({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
  const auto path = (std::filesystem::temp_directory_path() / "vira_mesh.obj").string();
  mesh.write_obj(path, "test");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("o test"), std::string::npos);
  EXPECT_NE(content.find("f 1 2 3"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(PolylineSet, LinesAndMerge) {
  va::PolylineSet lines;
  lines.begin_line();
  lines.add_point({0, 0, 0}, 0.0);
  lines.add_point({1, 0, 0}, 1.0);
  lines.begin_line();
  lines.add_point({2, 2, 2}, 0.5);

  EXPECT_EQ(lines.line_count(), 2u);
  EXPECT_EQ(lines.line(0).size(), 2u);
  EXPECT_EQ(lines.line(1).size(), 1u);
  EXPECT_DOUBLE_EQ(lines.line_times(0)[1], 1.0);

  va::PolylineSet other;
  other.begin_line();
  other.add_point({5, 5, 5}, 2.0);
  lines.merge(other);
  EXPECT_EQ(lines.line_count(), 3u);
  EXPECT_NEAR(lines.line(2)[0].x, 5.0, 1e-6);
}

TEST(PolylineSet, AddPointWithoutLineThrows) {
  va::PolylineSet lines;
  EXPECT_THROW(lines.add_point({0, 0, 0}), std::logic_error);
}

TEST(PolylineSet, SerializationRoundTrip) {
  va::PolylineSet lines;
  lines.begin_line();
  lines.add_point({1, 2, 3}, 0.25);
  vira::util::ByteBuffer buf;
  lines.serialize(buf);
  const auto restored = va::PolylineSet::deserialize(buf);
  EXPECT_EQ(restored.line_count(), 1u);
  EXPECT_DOUBLE_EQ(restored.line_times(0)[0], 0.25);
}

// ---------------------------------------------------------------------------
// Isosurface extraction
// ---------------------------------------------------------------------------

TEST(Isosurface, PlaneFieldGivesFlatSurface) {
  // f = x: iso 0.5 must produce the plane x = 0.5 with area ~1.
  auto block = field_block(9, [](const vm::Vec3& p) { return p.x; });
  va::TriangleMesh mesh;
  const auto active = va::extract_isosurface(block, "s", 0.5f, mesh);
  EXPECT_GT(active, 0u);
  EXPECT_NEAR(mesh.surface_area(), 1.0, 1e-3);
  for (std::size_t v = 0; v < mesh.vertex_count(); ++v) {
    EXPECT_NEAR(mesh.vertex(v).x, 0.5, 1e-6);
  }
}

TEST(Isosurface, SphereFieldIsClosedAndAccurate) {
  // f = |p - c|: iso r produces a sphere (closed surface, area ~ 4πr²).
  const vm::Vec3 center{0.5, 0.5, 0.5};
  auto block = field_block(21, [&](const vm::Vec3& p) { return (p - center).norm(); });
  va::TriangleMesh mesh;
  va::extract_isosurface(block, "s", 0.3f, mesh);
  EXPECT_GT(mesh.triangle_count(), 100u);
  EXPECT_NEAR(mesh.surface_area(), 4.0 * M_PI * 0.09, 0.05);
  // Watertight: no boundary edges.
  EXPECT_EQ(boundary_edge_count(mesh), 0u);
  // All vertices on the sphere.
  for (std::size_t v = 0; v < mesh.vertex_count(); ++v) {
    EXPECT_NEAR((mesh.vertex(v) - center).norm(), 0.3, 5e-3);
  }
}

TEST(Isosurface, WatertightOnRandomSmoothFields) {
  // Property: for smooth fields whose level set does not hit the block
  // boundary, the surface must be closed — across cells AND across the
  // per-cell tetrahedra. Run several random trigonometric fields.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    vira::util::Rng rng(seed);
    const double a = rng.uniform(1.0, 3.0);
    const double b = rng.uniform(1.0, 3.0);
    const double c = rng.uniform(1.0, 3.0);
    const vm::Vec3 center{0.5, 0.5, 0.5};
    auto block = field_block(
        15,
        [&](const vm::Vec3& p) {
          const auto r = p - center;
          return r.norm() + 0.05 * std::sin(a * 6.0 * r.x) * std::sin(b * 6.0 * r.y) *
                                std::sin(c * 6.0 * r.z);
        },
        "s", /*perturb=*/0.01, seed);
    va::TriangleMesh mesh;
    va::extract_isosurface(block, "s", 0.25f, mesh);
    ASSERT_GT(mesh.triangle_count(), 0u) << "seed " << seed;
    EXPECT_EQ(boundary_edge_count(mesh), 0u) << "seed " << seed;
  }
}

TEST(Isosurface, RangeExtractionMatchesWholeBlock) {
  const vm::Vec3 center{0.5, 0.5, 0.5};
  auto block = field_block(13, [&](const vm::Vec3& p) { return (p - center).norm(); });

  va::TriangleMesh whole;
  const auto active_whole = va::extract_isosurface(block, "s", 0.3f, whole);

  // Split into two ranges: results must combine to the same triangle count.
  va::TriangleMesh left;
  va::TriangleMesh right;
  const auto active_left = va::extract_isosurface_range(
      block, "s", 0.3f, {0, 6, 0, block.cells_j(), 0, block.cells_k()}, left);
  const auto active_right = va::extract_isosurface_range(
      block, "s", 0.3f, {6, block.cells_i(), 0, block.cells_j(), 0, block.cells_k()}, right);

  EXPECT_EQ(active_whole, active_left + active_right);
  EXPECT_EQ(whole.triangle_count(), left.triangle_count() + right.triangle_count());
}

TEST(Isosurface, InactiveCellProducesNothing) {
  auto block = field_block(5, [](const vm::Vec3&) { return 1.0; });
  EXPECT_FALSE(va::cell_is_active(block, "s", 0.0f, 0, 0, 0));
  va::TriangleMesh mesh;
  EXPECT_EQ(va::triangulate_cell(block, "s", 0.0f, 0, 0, 0, mesh), 0u);
  EXPECT_TRUE(mesh.empty());
}

TEST(Isosurface, NormalsPointRadiallyOnSphere) {
  // f = |p - c|: ∇f is the outward radial direction, so every vertex
  // normal of the iso sphere must align with (p - c).
  const vm::Vec3 center{0.5, 0.5, 0.5};
  auto block = field_block(17, [&](const vm::Vec3& p) { return (p - center).norm(); });
  va::TriangleMesh mesh;
  va::extract_isosurface(block, "s", 0.3f, mesh, /*with_normals=*/true);
  ASSERT_TRUE(mesh.has_normals());
  ASSERT_GT(mesh.vertex_count(), 50u);
  for (std::size_t v = 0; v < mesh.vertex_count(); ++v) {
    const vm::Vec3 radial = (mesh.vertex(v) - center).normalized();
    EXPECT_GT(mesh.normal(v).dot(radial), 0.97) << "vertex " << v;
    EXPECT_NEAR(mesh.normal(v).norm(), 1.0, 1e-6);
  }
}

TEST(Isosurface, NormalsOffByDefault) {
  auto block = field_block(7, [](const vm::Vec3& p) { return p.x; });
  va::TriangleMesh mesh;
  va::extract_isosurface(block, "s", 0.5f, mesh);
  EXPECT_FALSE(mesh.has_normals());
}

TEST(Isosurface, VerticesInterpolateToIsoValue) {
  auto block = field_block(9, [](const vm::Vec3& p) { return p.x * p.x + p.y; });
  va::TriangleMesh mesh;
  va::extract_isosurface(block, "s", 0.8f, mesh);
  ASSERT_GT(mesh.vertex_count(), 0u);
  for (std::size_t v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    // Trilinear field error is O(h²); vertices must track the level set.
    EXPECT_NEAR(p.x * p.x + p.y, 0.8, 0.02);
  }
}

// ---------------------------------------------------------------------------
// λ2
// ---------------------------------------------------------------------------

TEST(Lambda2, DetectsLambOseenCore) {
  vg::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  vg::StructuredBlock block(17, 17, 9);
  for (int k = 0; k < 9; ++k) {
    for (int j = 0; j < 17; ++j) {
      for (int i = 0; i < 17; ++i) {
        block.set_point(i, j, k, {i / 16.0, j / 16.0, k / 8.0});
      }
    }
  }
  vg::sample_fields(block, vortex, 0.0);
  const auto [lo, hi] = va::compute_lambda2_field(block);
  EXPECT_LT(lo, 0.0);  // vortical region exists
  EXPECT_GT(hi, lo);
  // Center node (on the axis) is deep inside the vortex.
  EXPECT_LT(block.scalar_at(va::kLambda2Field, 8, 8, 4), 0.0);
  // Far corner is outside.
  EXPECT_GE(block.scalar_at(va::kLambda2Field, 0, 0, 4), lo * 1e-3 - 1e-9);
}

TEST(Lambda2, UniformFlowHasNoVortex) {
  vg::UniformFlow flow({3, 2, 1});
  vg::StructuredBlock block(7, 7, 7);
  for (int k = 0; k < 7; ++k) {
    for (int j = 0; j < 7; ++j) {
      for (int i = 0; i < 7; ++i) {
        block.set_point(i, j, k, {i / 6.0, j / 6.0, k / 6.0});
      }
    }
  }
  vg::sample_fields(block, flow, 0.0);
  const auto [lo, hi] = va::compute_lambda2_field(block);
  EXPECT_NEAR(lo, 0.0, 1e-6);
  EXPECT_NEAR(hi, 0.0, 1e-6);
}

TEST(Lambda2, VortexBoundarySurfaceIsExtractable) {
  vg::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.12);
  vg::StructuredBlock block(21, 21, 9);
  for (int k = 0; k < 9; ++k) {
    for (int j = 0; j < 21; ++j) {
      for (int i = 0; i < 21; ++i) {
        block.set_point(i, j, k, {i / 20.0, j / 20.0, k / 8.0});
      }
    }
  }
  vg::sample_fields(block, vortex, 0.0);
  va::compute_lambda2_field(block);
  va::TriangleMesh mesh;
  const auto active = va::extract_isosurface(block, va::kLambda2Field, -1e-4f, mesh);
  EXPECT_GT(active, 0u);
  EXPECT_GT(mesh.triangle_count(), 10u);
  // The vortex tube surrounds the axis: extracted vertices stay within the
  // core's vicinity (radial distance bounded).
  for (std::size_t v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    const double r = std::hypot(p.x - 0.5, p.y - 0.5);
    EXPECT_LT(r, 0.45);
  }
}

// ---------------------------------------------------------------------------
// Integration
// ---------------------------------------------------------------------------

TEST(Integrator, Rk4StepMatchesAnalyticCircle) {
  // Rigid rotation ω=1: a particle at radius 1 follows the unit circle.
  vg::RigidRotation rotation({0, 0, 0}, {0, 0, 1}, 1.0);
  va::AnalyticProvider provider(rotation);
  const double h = 0.01;
  vm::Vec3 p{1, 0, 0};
  double t = 0.0;
  for (int step = 0; step < 100; ++step) {
    const auto next = va::rk4_step(provider, p, t, h);
    ASSERT_TRUE(next.has_value());
    p = *next;
    t += h;
  }
  EXPECT_NEAR(p.x, std::cos(1.0), 1e-8);
  EXPECT_NEAR(p.y, std::sin(1.0), 1e-8);
}

TEST(Integrator, Rk4HasFourthOrderConvergence) {
  vg::RigidRotation rotation({0, 0, 0}, {0, 0, 1}, 1.0);
  va::AnalyticProvider provider(rotation);
  auto error_for = [&](double h) {
    vm::Vec3 p{1, 0, 0};
    double t = 0.0;
    const int steps = static_cast<int>(std::llround(1.0 / h));
    for (int s = 0; s < steps; ++s) {
      p = *va::rk4_step(provider, p, t, h);
      t += h;
    }
    return (p - vm::Vec3{std::cos(1.0), std::sin(1.0), 0.0}).norm();
  };
  const double e1 = error_for(0.1);
  const double e2 = error_for(0.05);
  const double order = std::log2(e1 / e2);
  EXPECT_GT(order, 3.5);
  EXPECT_LT(order, 4.8);
}

TEST(Integrator, AdaptiveStepKeepsErrorBounded) {
  vg::AbcFlow abc;
  va::AnalyticProvider provider(abc);
  va::IntegratorParams params;
  params.tolerance = 1e-8;
  params.h_init = 0.05;
  params.h_max = 0.5;
  const auto coarse = va::integrate_pathline(provider, {0.1, 0.2, 0.3}, 0.0, 2.0, params);

  // Reference with a tiny fixed step.
  vm::Vec3 p{0.1, 0.2, 0.3};
  double t = 0.0;
  const double h = 1e-4;
  while (t < 2.0 - 1e-12) {
    p = *va::rk4_step(provider, p, t, std::min(h, 2.0 - t));
    t += std::min(h, 2.0 - t);
  }
  ASSERT_GT(coarse.size(), 3u);
  EXPECT_NEAR(coarse.back().t, 2.0, 1e-9);
  EXPECT_NEAR((coarse.back().position - p).norm(), 0.0, 1e-5);
}

TEST(Integrator, AdaptiveStepGrowsOnEasyFields) {
  vg::UniformFlow flow({1, 0, 0});
  va::AnalyticProvider provider(flow);
  va::IntegratorParams params;
  params.h_init = 1e-3;
  params.h_max = 0.25;
  const auto path = va::integrate_pathline(provider, {0, 0, 0}, 0.0, 10.0, params);
  // Constant field: the controller should open up to h_max quickly, so far
  // fewer steps than 10 / h_init.
  EXPECT_LT(path.size(), 100u);
  EXPECT_NEAR(path.back().position.x, 10.0, 1e-9);
}

TEST(Integrator, DomainExitStopsIntegration) {
  vg::UniformFlow flow({1, 0, 0});
  va::AnalyticProvider provider(flow, vm::Aabb({0, -1, -1}, {1, 1, 1}));
  va::IntegratorParams params;
  const auto path = va::integrate_pathline(provider, {0.5, 0, 0}, 0.0, 100.0, params);
  ASSERT_GT(path.size(), 1u);
  EXPECT_LT(path.back().position.x, 1.0 + 1e-6);
  EXPECT_LT(path.back().t, 100.0);
}

TEST(Integrator, TwoLevelStepInterpolatesBetweenFields) {
  vg::UniformFlow flow_a({1, 0, 0});
  vg::UniformFlow flow_b({0, 1, 0});
  va::AnalyticProvider a(flow_a);
  va::AnalyticProvider b(flow_b);
  // alpha = 0 -> pure A; alpha = 1 -> pure B; alpha = 0.5 -> average.
  const auto p0 = va::two_level_rk4_step(a, b, {0, 0, 0}, 0.0, 1.0, 0.0);
  EXPECT_NEAR(p0->x, 1.0, 1e-12);
  EXPECT_NEAR(p0->y, 0.0, 1e-12);
  const auto p1 = va::two_level_rk4_step(a, b, {0, 0, 0}, 0.0, 1.0, 1.0);
  EXPECT_NEAR(p1->x, 0.0, 1e-12);
  EXPECT_NEAR(p1->y, 1.0, 1e-12);
  const auto ph = va::two_level_rk4_step(a, b, {0, 0, 0}, 0.0, 1.0, 0.5);
  EXPECT_NEAR(ph->x, 0.5, 1e-12);
  EXPECT_NEAR(ph->y, 0.5, 1e-12);
}

TEST(Integrator, TwoLevelIntervalConvergesToTrueUnsteadySolution) {
  // Time-varying field u = (t, 0, 0). Exact: x(t) = x0 + t²/2.
  // Two-level integration between snapshots at t=0 and t=1 reproduces the
  // linear-in-time interpolation the paper's scheme implies.
  vg::UniformFlow level_a_field({0, 0, 0});
  vg::UniformFlow level_b_field({1, 0, 0});
  va::AnalyticProvider a(level_a_field);
  va::AnalyticProvider b(level_b_field);
  vm::Vec3 p{0, 0, 0};
  double h = 0.01;
  va::IntegratorParams params;
  params.tolerance = 1e-10;
  std::vector<va::PathPoint> out;
  ASSERT_TRUE(va::integrate_interval_two_level(a, b, 0.0, 1.0, p, h, params, out));
  EXPECT_NEAR(p.x, 0.5, 1e-3);  // ∫ t dt over [0,1]
  ASSERT_FALSE(out.empty());
  EXPECT_NEAR(out.back().t, 1.0, 1e-9);
}

TEST(Integrator, StreamlineOnFrozenTime) {
  vg::RigidRotation rotation({0, 0, 0}, {0, 0, 1}, 2.0 * M_PI);
  va::AnalyticProvider provider(rotation);
  va::IntegratorParams params;
  params.tolerance = 1e-9;
  const auto line = va::integrate_streamline(provider, {1, 0, 0}, 0.0, 1.0, params);
  // One full revolution.
  EXPECT_NEAR((line.back().position - vm::Vec3{1, 0, 0}).norm(), 0.0, 1e-5);
}

// ---------------------------------------------------------------------------
// BlockSampler (multi-block velocity lookup)
// ---------------------------------------------------------------------------

class BlockSamplerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "vira_algo_sampler_ds").string();
    std::filesystem::remove_all(dir_);
    vg::RigidRotation rotation({1.0, 0.5, 0.5}, {0, 0, 1}, 1.0);
    vg::generate_box(dir_, rotation, 2, 9, 9, 9, {0, 0, 0}, {2, 1, 1}, 0.1, /*nblocks=*/4);
  }
  static std::string dir_;
};
std::string BlockSamplerTest::dir_;

TEST_F(BlockSamplerTest, SamplesAcrossBlocks) {
  vg::DatasetReader reader(dir_);
  const auto& info = reader.meta().steps[0];
  int fetches = 0;
  va::BlockSampler sampler(info, [&](int b) {
    ++fetches;
    return std::make_shared<const vg::StructuredBlock>(reader.read_block(0, b));
  });

  // Probe points in different slabs of the box; velocity must match the
  // analytic rotation field.
  vg::RigidRotation rotation({1.0, 0.5, 0.5}, {0, 0, 1}, 1.0);
  for (double x : {0.2, 0.7, 1.3, 1.9}) {
    const vm::Vec3 p{x, 0.4, 0.6};
    const auto u = sampler.velocity(p, 0.0);
    ASSERT_TRUE(u.has_value()) << "x=" << x;
    const auto expected = rotation.velocity(p, 0.0);
    EXPECT_NEAR((*u - expected).norm(), 0.0, 5e-3) << "x=" << x;
  }
  EXPECT_EQ(sampler.blocks_touched(), 4u);
  EXPECT_EQ(fetches, 4);  // each block fetched exactly once
}

TEST_F(BlockSamplerTest, HintAvoidsRefetch) {
  vg::DatasetReader reader(dir_);
  const auto& info = reader.meta().steps[0];
  int fetches = 0;
  va::BlockSampler sampler(info, [&](int b) {
    ++fetches;
    return std::make_shared<const vg::StructuredBlock>(reader.read_block(0, b));
  });
  // Many queries inside one slab: one fetch.
  for (double s = 0.05; s < 0.45; s += 0.01) {
    ASSERT_TRUE(sampler.velocity({s, 0.5, 0.5}, 0.0).has_value());
  }
  EXPECT_EQ(fetches, 1);
}

TEST_F(BlockSamplerTest, OutsideDomainReturnsNothing) {
  vg::DatasetReader reader(dir_);
  const auto& info = reader.meta().steps[0];
  va::BlockSampler sampler(info, [&](int b) {
    return std::make_shared<const vg::StructuredBlock>(reader.read_block(0, b));
  });
  EXPECT_FALSE(sampler.velocity({5, 5, 5}, 0.0).has_value());
  EXPECT_FALSE(sampler.velocity({-0.5, 0.5, 0.5}, 0.0).has_value());
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

TEST(Payloads, MeshFragmentRoundTrip) {
  va::TriangleMesh mesh;
  mesh.add_triangle({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
  auto buffer = va::encode_mesh_fragment(mesh, 2);
  const auto decoded = va::decode_fragment(buffer);
  EXPECT_EQ(decoded.kind, va::kPayloadMesh);
  EXPECT_EQ(decoded.level, 2);
  EXPECT_EQ(decoded.mesh.triangle_count(), 1u);
}

TEST(Payloads, LinesFragmentRoundTrip) {
  va::PolylineSet lines;
  lines.begin_line();
  lines.add_point({1, 2, 3}, 0.5);
  auto buffer = va::encode_lines_fragment(lines);
  const auto decoded = va::decode_fragment(buffer);
  EXPECT_EQ(decoded.kind, va::kPayloadLines);
  EXPECT_EQ(decoded.lines.line_count(), 1u);
}

TEST(Payloads, SummaryRoundTrip) {
  auto buffer = va::encode_summary(100, 42, 7);
  const auto decoded = va::decode_fragment(buffer);
  EXPECT_EQ(decoded.kind, va::kPayloadSummary);
  EXPECT_EQ(decoded.triangles, 100u);
  EXPECT_EQ(decoded.active_cells, 42u);
  EXPECT_EQ(decoded.points, 7u);
}

// ---------------------------------------------------------------------------
// Block distribution properties (chunk_range / owns_position)
// ---------------------------------------------------------------------------

TEST(BlockDistribution, ChunkRangePartitionsExhaustively) {
  // Exhaustive small-N sweep: for every (total, group_size) the per-rank
  // ranges must be contiguous, disjoint, cover [0, total) exactly, and
  // have sizes differing by at most one.
  for (int total = 0; total <= 40; ++total) {
    for (int size = 1; size <= 8; ++size) {
      int covered = 0;
      int min_size = total + 1;
      int max_size = -1;
      int expected_begin = 0;
      for (int rank = 0; rank < size; ++rank) {
        const auto [begin, end] = va::chunk_range(total, rank, size);
        ASSERT_LE(begin, end) << "total=" << total << " rank=" << rank << "/" << size;
        ASSERT_EQ(begin, expected_begin) << "gap/overlap at rank " << rank;
        expected_begin = end;
        const int chunk = end - begin;
        covered += chunk;
        min_size = std::min(min_size, chunk);
        max_size = std::max(max_size, chunk);
      }
      ASSERT_EQ(expected_begin, total) << "total=" << total << " size=" << size;
      ASSERT_EQ(covered, total);
      ASSERT_LE(max_size - min_size, 1) << "unbalanced: total=" << total << " size=" << size;
    }
  }
}

TEST(BlockDistribution, ChunkRangeDegenerateGroup) {
  // group_size <= 1 means "everything is mine" (also the size-0 guard).
  EXPECT_EQ(va::chunk_range(17, 0, 1), (std::pair<int, int>{0, 17}));
  EXPECT_EQ(va::chunk_range(17, 3, 0), (std::pair<int, int>{0, 17}));
  EXPECT_EQ(va::chunk_range(0, 0, 4), (std::pair<int, int>{0, 0}));
}

TEST(BlockDistribution, OwnsPositionPartitionsExhaustively) {
  for (int size = 1; size <= 8; ++size) {
    std::vector<int> counts(static_cast<std::size_t>(size), 0);
    const std::size_t positions = 8 * 8 * 3;  // several full round-robin cycles
    for (std::size_t position = 0; position < positions; ++position) {
      int owners = 0;
      for (int rank = 0; rank < size; ++rank) {
        if (va::owns_position(position, rank, size)) {
          ++owners;
          ++counts[static_cast<std::size_t>(rank)];
        }
      }
      ASSERT_EQ(owners, 1) << "position " << position << " size " << size;
    }
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    ASSERT_LE(*hi - *lo, 1) << "unbalanced ownership for size " << size;
  }
}

// ---------------------------------------------------------------------------
// Block decode from a shared blob
// ---------------------------------------------------------------------------

TEST(DecodeBlock, DecodesFromSharedBlobWithoutMutatingIt) {
  const auto block = field_block(5, [](const vm::Vec3& p) { return p.x + 2 * p.y; });
  auto buffer = std::make_shared<vira::util::ByteBuffer>();
  block.serialize(*buffer);
  const vira::dms::Blob blob = buffer;

  const auto first = va::decode_block(blob);
  // The blob is immutable and shared: decoding must not consume it, so a
  // second decode of the same cached bytes yields the same block.
  const auto second = va::decode_block(blob);
  EXPECT_EQ(blob->read_pos(), 0u);

  for (const auto* decoded : {&first, &second}) {
    ASSERT_EQ(decoded->ni(), block.ni());
    ASSERT_EQ(decoded->nj(), block.nj());
    ASSERT_EQ(decoded->nk(), block.nk());
    ASSERT_TRUE(decoded->has_scalar("s"));
    const auto got = decoded->scalar("s");
    const auto want = block.scalar("s");
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  }
}

TEST(DecodeBlock, NullBlobThrows) {
  EXPECT_THROW((void)va::decode_block(vira::dms::Blob{}), std::runtime_error);
}

TEST(DecodeBlock, ByteReaderPathMatchesByteBufferPath) {
  const auto block = field_block(4, [](const vm::Vec3& p) { return p.z; });
  vira::util::ByteBuffer stream;
  block.serialize(stream);
  block.serialize(stream);  // two consecutive records in one buffer

  // The ByteBuffer overload must advance its cursor exactly one record so
  // back-to-back records decode cleanly.
  const auto a = vg::StructuredBlock::deserialize(stream);
  const auto b = vg::StructuredBlock::deserialize(stream);
  EXPECT_EQ(stream.remaining(), 0u);
  const auto want = block.scalar("s");
  const auto sa = a.scalar("s");
  const auto sb = b.scalar("s");
  EXPECT_TRUE(std::equal(sa.begin(), sa.end(), want.begin(), want.end()));
  EXPECT_TRUE(std::equal(sb.begin(), sb.end(), want.begin(), want.end()));
}
