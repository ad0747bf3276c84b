/// \file simd_kernel_test.cpp
/// Property tests for the SoA/SIMD extraction path (DESIGN.md §13): the
/// SIMD kernels against their scalar references over randomized blocks,
/// the batch integrator's per-lane bit-identity, the serialize round-trip
/// that reproduces the block blob byte for byte, and the alignment /
/// padding contract the vector loads depend on (for built and for decoded
/// blocks).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "algo/integrator.hpp"
#include "algo/isosurface.hpp"
#include "algo/lambda2.hpp"
#include "grid/analytic_fields.hpp"
#include "grid/field_store.hpp"
#include "grid/structured_block.hpp"
#include "grid/synthetic.hpp"
#include "simd/kernels.hpp"
#include "simd/simd.hpp"
#include "util/byte_buffer.hpp"

namespace vira {
namespace {

/// Vortex block with randomized node jitter and velocity noise so the
/// kernels see irregular (but still valid curvilinear) data, not just the
/// smooth analytic field.
grid::StructuredBlock make_random_block(int ni, int nj, int nk, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(-0.2, 0.2);
  grid::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  grid::StructuredBlock block(ni, nj, nk);
  const double ci = 1.0 / (ni - 1);
  const double cj = 1.0 / (nj - 1);
  const double ck = 1.0 / (nk - 1);
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        // Jitter interior nodes by a fraction of a cell: the grid stays
        // non-degenerate, but metric terms differ node to node.
        const bool interior =
            i > 0 && i < ni - 1 && j > 0 && j < nj - 1 && k > 0 && k < nk - 1;
        const double dx = interior ? jitter(rng) * ci : 0.0;
        const double dy = interior ? jitter(rng) * cj : 0.0;
        const double dz = interior ? jitter(rng) * ck : 0.0;
        block.set_point(i, j, k, {i * ci + dx, j * cj + dy, k * ck + dz});
      }
    }
  }
  grid::sample_fields(block, vortex, 0.0);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        auto u = block.velocity(i, j, k);
        block.set_velocity(i, j, k, {u.x + noise(rng), u.y + noise(rng), u.z + noise(rng)});
      }
    }
  }
  return block;
}

grid::StructuredBlock make_random_block(int n, std::uint32_t seed) {
  return make_random_block(n, n, n, seed);
}

/// Pins the kernels' dispatch level for one scope, then restores it.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : saved_(simd::active_level()) {
    simd::set_level(level);
  }
  ~ScopedLevel() { simd::set_level(saved_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::Level saved_;
};

/// The portable level and, where the CPU has more, the detected one.
std::vector<simd::Level> dispatch_levels() {
  std::vector<simd::Level> levels{simd::Level::kGeneric};
  if (simd::detect_level() != simd::Level::kGeneric) {
    levels.push_back(simd::detect_level());
  }
  return levels;
}

/// λ2 of `block` on the scalar path and on the SIMD path at the active
/// level: the SIMD path shares the stencil/adjugate formulas but may run
/// the trig eigen-solve through the fast-math TU, so agreement is to
/// rounding error, not bit-exact. The drift is bounded at 1e-4 of the
/// field scale; NaN nodes must be NaN on both paths.
void expect_lambda2_agrees(grid::StructuredBlock& block, const std::string& what) {
  const auto scalar_range =
      algo::compute_lambda2_field(block, "l2_scalar", simd::Kernel::kScalar);
  const auto simd_range = algo::compute_lambda2_field(block, "l2_simd", simd::Kernel::kSimd);

  const auto a = block.scalar("l2_scalar");
  const auto b = block.scalar("l2_simd");
  ASSERT_EQ(a.size(), b.size());
  float scale = 0.0f;
  for (float v : a) {
    if (!std::isnan(v)) {
      scale = std::max(scale, std::abs(v));
    }
  }
  ASSERT_GT(scale, 0.0f) << what;
  const float tol = 1e-4f * scale;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::isnan(a[i]), std::isnan(b[i])) << "node " << i << ", " << what;
    if (!std::isnan(a[i])) {
      ASSERT_TRUE(std::isfinite(b[i])) << "node " << i << ", " << what;
      ASSERT_NEAR(a[i], b[i], tol) << "node " << i << ", " << what;
    }
  }
  EXPECT_NEAR(scalar_range.first, simd_range.first, tol) << what;
  EXPECT_NEAR(scalar_range.second, simd_range.second, tol) << what;
}

std::string level_context(simd::Level level, const grid::StructuredBlock& block,
                          std::uint32_t seed) {
  return std::string(simd::level_name(level)) + " " + std::to_string(block.ni()) + "x" +
         std::to_string(block.nj()) + "x" + std::to_string(block.nk()) + " seed " +
         std::to_string(seed);
}

// --- λ2: scalar vs SIMD agreement ----------------------------------------

TEST(SimdKernelTest, Lambda2ScalarVsSimdAgreesOnRandomBlocks) {
  // Cubes, Engine-shaped blocks (22×16×12, 28×20×14), short rows, and a
  // 2-wide block whose rows have no interior column for the vector loop.
  const std::vector<std::array<int, 3>> shapes = {
      {17, 17, 17}, {22, 16, 12}, {28, 20, 14}, {5, 3, 4}, {2, 7, 3}};
  for (const auto level : dispatch_levels()) {
    const ScopedLevel pin(level);
    for (const auto& shape : shapes) {
      for (std::uint32_t seed : {1u, 7u, 42u}) {
        auto block = make_random_block(shape[0], shape[1], shape[2], seed);
        expect_lambda2_agrees(block, level_context(level, block, seed));
      }
    }
  }
}

TEST(SimdKernelTest, Lambda2SingularMetricGivesZeroOnBothPaths) {
  // Three k-planes collapsed onto one z: every node of the middle plane has
  // a Jacobian with a zero row (det == 0 exactly), whose inverse both paths
  // take as zero, so λ2 is 0 there — not NaN or Inf.
  constexpr int kFlat = 8;
  for (const auto level : dispatch_levels()) {
    const ScopedLevel pin(level);
    auto block = make_random_block(22, 16, 12, 5u);
    for (int k = kFlat - 1; k <= kFlat + 1; ++k) {
      for (int j = 0; j < block.nj(); ++j) {
        for (int i = 0; i < block.ni(); ++i) {
          const auto p = block.point(i, j, k);
          block.set_point(i, j, k, {p.x, p.y, block.point(0, 0, kFlat).z});
        }
      }
    }
    expect_lambda2_agrees(block, level_context(level, block, 5u));
    const auto scalar = block.scalar("l2_scalar");
    const auto simd = block.scalar("l2_simd");
    for (int j = 0; j < block.nj(); ++j) {
      for (int i = 0; i < block.ni(); ++i) {
        const auto n = block.node_index(i, j, kFlat);
        EXPECT_EQ(scalar[n], 0.0f) << "node " << n;
        EXPECT_EQ(simd[n], 0.0f) << "node " << n << " " << simd::level_name(level);
      }
    }
  }
}

TEST(SimdKernelTest, Lambda2NanVelocityGivesSameNanNodesOnBothPaths) {
  // A NaN velocity sample poisons the central differences of its six face
  // neighbours (not the node itself). The avx2 level's eigen pass is a
  // -ffast-math TU, which assumes finite values: this pins that it still
  // returns NaN for those nodes and nothing else.
  for (const auto level : dispatch_levels()) {
    const ScopedLevel pin(level);
    auto block = make_random_block(22, 16, 12, 9u);
    const auto u = block.velocity(10, 7, 5);
    block.set_velocity(10, 7, 5, {std::numeric_limits<double>::quiet_NaN(), u.y, u.z});
    expect_lambda2_agrees(block, level_context(level, block, 9u));
    const auto scalar = block.scalar("l2_scalar");
    EXPECT_EQ(std::count_if(scalar.begin(), scalar.end(), [](float v) { return std::isnan(v); }),
              6);
  }
}

TEST(SimdKernelTest, EigenBatchMatchesDiagonalAndDegenerateMatrices) {
  // Diagonal, repeated-eigenvalue and scaled-identity matrices hit the
  // branch-free fast-math path's guard lanes (off == 0, p == 0).
  const std::vector<std::array<double, 6>> cases = {
      {3.0, 1.0, 2.0, 0.0, 0.0, 0.0},   // diagonal: mid = 2
      {5.0, 5.0, 5.0, 0.0, 0.0, 0.0},   // q·I: p == 0, mid = 5
      {2.0, 2.0, 8.0, 0.0, 0.0, 0.0},   // repeated low pair
      {1.0, 4.0, 9.0, 0.5, -0.25, 2.0}, // generic symmetric
      {-3.0, -3.0, -3.0, 1e-12, 0.0, 0.0},
  };
  std::vector<double> a00, a11, a22, a01, a02, a12;
  for (const auto& c : cases) {
    a00.push_back(c[0]);
    a11.push_back(c[1]);
    a22.push_back(c[2]);
    a01.push_back(c[3]);
    a02.push_back(c[4]);
    a12.push_back(c[5]);
  }
  const int n = static_cast<int>(cases.size());
  std::vector<double> got(n), want(n);
  simd::eigen_mid_sym3_batch(a00.data(), a11.data(), a22.data(), a01.data(), a02.data(),
                             a12.data(), n, got.data());
  simd::generic::eigen_mid_sym3_batch(a00.data(), a11.data(), a22.data(), a01.data(),
                                      a02.data(), a12.data(), n, want.data());
  for (int i = 0; i < n; ++i) {
    // Repeated eigenvalues sit at acos(±1), where rounding in the argument
    // amplifies to ~sqrt(eps) in the angle — tolerance reflects that, not
    // plain ulp drift.
    EXPECT_NEAR(got[i], want[i], 1e-6 + 1e-6 * std::abs(want[i])) << "case " << i;
  }
}

// --- isosurface: SIMD active-cell scan must not change the mesh ----------

/// Extracts `block`'s density at `iso` on both paths and expects the same
/// active-cell count and byte-identical meshes, whose vertices are all
/// finite. Returns the triangle count.
std::size_t expect_meshes_identical(const grid::StructuredBlock& block, float iso,
                                    bool with_normals, const std::string& what) {
  algo::TriangleMesh scalar_mesh, simd_mesh;
  const auto scalar_active = algo::extract_isosurface(block, "density", iso, scalar_mesh,
                                                      with_normals, simd::Kernel::kScalar);
  const auto simd_active = algo::extract_isosurface(block, "density", iso, simd_mesh,
                                                    with_normals, simd::Kernel::kSimd);
  EXPECT_EQ(scalar_active, simd_active) << what;
  // The SIMD path only changes *which cells get scanned how*; the
  // triangulation of each active cell is the same code. Serialized
  // meshes (vertices, normals, indices) must match byte for byte.
  util::ByteBuffer a, b;
  scalar_mesh.serialize(a);
  simd_mesh.serialize(b);
  EXPECT_EQ(a.size(), b.size()) << what;
  EXPECT_TRUE(a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0) << what;
  for (std::size_t v = 0; v < scalar_mesh.vertex_count(); ++v) {
    const auto p = scalar_mesh.vertex(v);
    EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z))
        << "vertex " << v << ", " << what;
  }
  return scalar_mesh.triangle_count();
}

TEST(SimdKernelTest, IsosurfaceScalarVsSimdMeshesIdentical) {
  for (std::uint32_t seed : {3u, 11u}) {
    auto block = make_random_block(13, seed);
    const auto range = block.scalar_range("density");
    const float iso = 0.5f * (range.first + range.second);
    for (bool with_normals : {false, true}) {
      const std::string what =
          "seed " + std::to_string(seed) + " normals " + std::to_string(with_normals);
      EXPECT_GT(expect_meshes_identical(block, iso, with_normals, what), 0u);
    }

    // Poison nodes with NaN and ±inf: the cells around them are inactive on
    // both paths, and the rest of the surface is unchanged.
    auto density = block.scalar("density");
    for (std::size_t n = 5; n < density.size(); n += 37) {
      density[n] = std::numeric_limits<float>::quiet_NaN();
    }
    density[block.node_index(6, 6, 6)] = std::numeric_limits<float>::infinity();
    density[block.node_index(3, 9, 4)] = -std::numeric_limits<float>::infinity();
    const std::string what = "seed " + std::to_string(seed) + " poisoned";
    EXPECT_GT(expect_meshes_identical(block, iso, false, what), 0u);
  }

  // Density below iso everywhere but two NaN nodes: no cell straddles.
  auto block = make_random_block(9, 1u);
  auto density = block.scalar("density");
  std::fill(density.begin(), density.end(), 0.25f);
  density[block.node_index(4, 4, 4)] = std::numeric_limits<float>::quiet_NaN();
  density[block.node_index(2, 5, 6)] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(expect_meshes_identical(block, 0.5f, false, "below iso with NaN nodes"), 0u);
}

TEST(SimdKernelTest, ActiveCellMaskMatchesScalarPredicate) {
  // Rows of 1..70 cells cross the 8-lane vector step and the 64-cell
  // chunk. Node values come from a few levels so iso often equals a
  // corner, with some NaN and ±inf corners mixed in.
  const float kLevels[] = {-1.0f,
                           0.0f,
                           0.5f,
                           1.0f,
                           std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  std::mt19937 rng(17);
  std::discrete_distribution<int> pick({20, 20, 20, 20, 1, 1, 1});
  for (const auto level : dispatch_levels()) {
    const ScopedLevel pin(level);
    for (int ncells = 1; ncells <= 70; ++ncells) {
      std::array<std::vector<float>, 4> rows;
      for (auto& row : rows) {
        row.resize(static_cast<std::size_t>(ncells) + 1);
        for (auto& v : row) {
          v = kLevels[pick(rng)];
        }
      }
      for (float iso : {0.0f, 0.5f, 1.0f}) {
        std::vector<std::uint8_t> mask(static_cast<std::size_t>(ncells), 0xee);
        simd::active_cell_mask(rows[0].data(), rows[1].data(), rows[2].data(), rows[3].data(),
                               ncells, iso, mask.data());
        for (int c = 0; c < ncells; ++c) {
          const std::array<float, 8> corners = {rows[0][c], rows[0][c + 1], rows[1][c],
                                                rows[1][c + 1], rows[2][c], rows[2][c + 1],
                                                rows[3][c], rows[3][c + 1]};
          ASSERT_EQ(mask[c], algo::cell_is_active(corners, iso) ? 1 : 0)
              << simd::level_name(level) << " ncells " << ncells << " cell " << c << " iso "
              << iso;
        }
      }
    }
  }
}

// --- batch RK4: per-lane trajectories identical to scalar ----------------

TEST(SimdKernelTest, BatchPathlinesBitIdenticalToScalar) {
  grid::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  const math::Aabb domain{{0, 0, 0}, {1, 1, 1}};
  algo::IntegratorParams params;
  params.max_steps = 300;

  std::mt19937 rng(99);
  std::uniform_real_distribution<double> pos(0.05, 0.95);
  std::vector<math::Vec3> seeds;
  for (int s = 0; s < 23; ++s) {  // odd count: exercises a partial tail
    seeds.push_back({pos(rng), pos(rng), pos(rng)});
  }

  algo::AnalyticProvider batch_provider(vortex, domain);
  const auto batch = algo::integrate_pathlines_batch(batch_provider, seeds, 0.0, 1.5, params);
  ASSERT_EQ(batch.size(), seeds.size());

  for (std::size_t s = 0; s < seeds.size(); ++s) {
    algo::AnalyticProvider provider(vortex, domain);
    const auto scalar = algo::integrate_pathline(provider, seeds[s], 0.0, 1.5, params);
    ASSERT_EQ(batch[s].size(), scalar.size()) << "seed " << s;
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      // Lockstep lanes replay the scalar control flow and op order
      // exactly — equality here is bitwise, not approximate.
      EXPECT_EQ(batch[s][i].position.x, scalar[i].position.x) << "seed " << s << " pt " << i;
      EXPECT_EQ(batch[s][i].position.y, scalar[i].position.y) << "seed " << s << " pt " << i;
      EXPECT_EQ(batch[s][i].position.z, scalar[i].position.z) << "seed " << s << " pt " << i;
      EXPECT_EQ(batch[s][i].t, scalar[i].t) << "seed " << s << " pt " << i;
    }
  }
}

TEST(SimdKernelTest, BatchTwoLevelIntervalBitIdenticalToScalar) {
  grid::LambOseenVortex v0({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  grid::LambOseenVortex v1({0.45, 0.55, 0.5}, {0, 0, 1}, 1.8, 0.18);
  const math::Aabb domain{{0, 0, 0}, {1, 1, 1}};
  algo::IntegratorParams params;

  std::vector<math::Vec3> seeds = {
      {0.3, 0.4, 0.5}, {0.7, 0.6, 0.4}, {0.2, 0.8, 0.6}, {0.55, 0.25, 0.45}, {0.9, 0.9, 0.1}};
  const double t_a = 0.0, t_b = 0.25;

  // Batch: all lanes through one provider pair.
  const int n = static_cast<int>(seeds.size());
  std::vector<math::Vec3> p = seeds;
  std::vector<double> h(seeds.size(), params.h_init);
  std::vector<std::uint8_t> alive(seeds.size(), 1);
  std::vector<std::vector<algo::PathPoint>> outs(seeds.size());
  algo::AnalyticProvider batch_a(v0, domain), batch_b(v1, domain);
  algo::integrate_interval_two_level_batch(batch_a, batch_b, t_a, t_b, n, p.data(), h.data(),
                                           alive.data(), params, outs.data());

  for (std::size_t s = 0; s < seeds.size(); ++s) {
    algo::AnalyticProvider level_a(v0, domain), level_b(v1, domain);
    math::Vec3 sp = seeds[s];
    double sh = params.h_init;
    std::vector<algo::PathPoint> sout;
    const bool ok =
        algo::integrate_interval_two_level(level_a, level_b, t_a, t_b, sp, sh, params, sout);
    EXPECT_EQ(alive[s] != 0, ok) << "seed " << s;
    ASSERT_EQ(outs[s].size(), sout.size()) << "seed " << s;
    for (std::size_t i = 0; i < sout.size(); ++i) {
      EXPECT_EQ(outs[s][i].position.x, sout[i].position.x);
      EXPECT_EQ(outs[s][i].position.y, sout[i].position.y);
      EXPECT_EQ(outs[s][i].position.z, sout[i].position.z);
      EXPECT_EQ(outs[s][i].t, sout[i].t);
    }
    EXPECT_EQ(p[s].x, sp.x);
    EXPECT_EQ(h[s], sh);
  }
}

// --- serialization: decode then serialize reproduces the blob byte for byte

TEST(SimdKernelTest, SerializeRoundTripByteIdentical) {
  auto block = make_random_block(9, 5u);
  algo::compute_lambda2_field(block, algo::kLambda2Field, simd::Kernel::kSimd);
  block.scalar("zeta_extra");  // registered last, sorts last

  util::ByteBuffer first;
  block.serialize(first);
  auto copy = grid::StructuredBlock::deserialize(first);
  util::ByteBuffer second;
  copy.serialize(second);

  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(std::memcmp(first.data(), second.data(), first.size()), 0);
  EXPECT_EQ(copy.node_count(), block.node_count());
  EXPECT_EQ(copy.scalar_names(), block.scalar_names());
}

TEST(SimdKernelTest, SerializationIndependentOfFieldRegistrationOrder) {
  // The wire blob walks scalars in sorted-name order, so two stores that
  // interned the same fields in different orders serialize identically.
  auto fill = [](grid::StructuredBlock& b, const std::vector<std::string>& order) {
    for (const auto& name : order) {
      auto s = b.scalar(name);
      for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = static_cast<float>(name.size()) + 0.25f * static_cast<float>(i);
      }
    }
  };
  grid::StructuredBlock b1(4, 4, 4), b2(4, 4, 4);
  fill(b1, {"pressure", "alpha", "mach"});
  fill(b2, {"mach", "pressure", "alpha"});

  util::ByteBuffer blob1, blob2;
  b1.serialize(blob1);
  b2.serialize(blob2);
  ASSERT_EQ(blob1.size(), blob2.size());
  EXPECT_EQ(std::memcmp(blob1.data(), blob2.data(), blob1.size()), 0);
  EXPECT_NE(b1.field_id("pressure"), b2.field_id("pressure"));  // ids differ, bytes don't
}

// --- alignment / padding: the contract the unmasked SIMD tails rely on ---

TEST(SimdKernelTest, FieldArraysAlignedAndPadded) {
  grid::StructuredBlock block(5, 3, 7);  // 105 nodes: not a multiple of 16
  const auto id = block.ensure_field("s");
  auto values = block.field_values(id);
  std::fill(values.begin(), values.end(), 1.5f);

  auto check = [](const float* p, std::size_t logical) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % grid::kFieldAlignment, 0u);
    const std::size_t padded =
        (logical + grid::kFieldPadFloats - 1) / grid::kFieldPadFloats * grid::kFieldPadFloats;
    EXPECT_GT(padded, logical);  // 105 rounds up, so a real pad exists
    for (std::size_t i = logical; i < padded; ++i) {
      EXPECT_EQ(p[i], 0.0f) << "pad float " << i << " not zero";
    }
  };
  const std::size_t nodes = static_cast<std::size_t>(block.node_count());
  check(block.points_x().data(), nodes);
  check(block.points_y().data(), nodes);
  check(block.points_z().data(), nodes);
  check(block.velocity_x().data(), nodes);
  check(block.velocity_y().data(), nodes);
  check(block.velocity_z().data(), nodes);
  check(block.field_values(id).data(), nodes);

  // A decoded block's fields are slices of one slab, held to the same
  // contract even when the blob's pad bytes are not zero: every array in
  // the blob is `padded` floats, the last `padded - nodes` of them pad.
  util::ByteBuffer blob;
  block.serialize(blob);
  const std::size_t padded = grid::padded_floats(nodes);
  const std::size_t array_bytes = padded * sizeof(float);
  const std::size_t arrays = 7;  // px py pz vx vy vz s
  const std::size_t header = blob.size() - arrays * array_bytes;
  EXPECT_EQ(header % grid::kFieldAlignment, 0u);
  for (std::size_t a = 0; a < arrays; ++a) {
    const std::size_t pad_begin = header + a * array_bytes + nodes * sizeof(float);
    std::memset(blob.data() + pad_begin, 0xff, (padded - nodes) * sizeof(float));
  }
  const auto decoded = grid::StructuredBlock::deserialize(blob);
  check(decoded.points_x().data(), nodes);
  check(decoded.points_y().data(), nodes);
  check(decoded.points_z().data(), nodes);
  check(decoded.velocity_x().data(), nodes);
  check(decoded.velocity_y().data(), nodes);
  check(decoded.velocity_z().data(), nodes);
  const auto decoded_id = decoded.field_id("s");
  check(decoded.field_values(decoded_id).data(), nodes);
  EXPECT_EQ(decoded.field_values(decoded_id)[nodes - 1], 1.5f);

  grid::AlignedFloats a(21, 3.0f);
  EXPECT_EQ(a.size(), 21u);
  EXPECT_EQ(a.padded_size() % grid::kFieldPadFloats, 0u);
  EXPECT_GE(a.padded_size(), a.size());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % grid::kFieldAlignment, 0u);
  for (std::size_t i = a.size(); i < a.padded_size(); ++i) {
    EXPECT_EQ(a.data()[i], 0.0f);
  }
}

TEST(SimdKernelTest, KernelKnobParsesAndDispatches) {
  EXPECT_EQ(simd::parse_kernel("scalar"), simd::Kernel::kScalar);
  EXPECT_EQ(simd::parse_kernel("simd"), simd::Kernel::kSimd);
  EXPECT_EQ(simd::parse_kernel("auto"), simd::Kernel::kSimd);
  EXPECT_EQ(simd::parse_kernel("avx512"), std::nullopt);
  // Whatever the host supports, dispatch must resolve to a real level.
  EXPECT_NE(simd::level_name(simd::active_level()), nullptr);
}

}  // namespace
}  // namespace vira
