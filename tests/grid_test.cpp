#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "grid/analytic_fields.hpp"
#include "grid/bsp_tree.hpp"
#include "grid/cell_locator.hpp"
#include "grid/dataset_io.hpp"
#include "grid/structured_block.hpp"
#include "grid/synthetic.hpp"
#include "math/eigen_sym3.hpp"
#include "util/rng.hpp"

namespace vg = vira::grid;
namespace vm = vira::math;

namespace {

/// A unit box block with optionally perturbed (curvilinear) interior nodes.
vg::StructuredBlock make_box_block(int ni, int nj, int nk, double perturb = 0.0,
                                   std::uint64_t seed = 1) {
  vg::StructuredBlock block(ni, nj, nk);
  vira::util::Rng rng(seed);
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        vm::Vec3 p{static_cast<double>(i) / (ni - 1), static_cast<double>(j) / (nj - 1),
                   static_cast<double>(k) / (nk - 1)};
        const bool interior =
            i > 0 && i < ni - 1 && j > 0 && j < nj - 1 && k > 0 && k < nk - 1;
        if (interior && perturb > 0.0) {
          p += vm::Vec3{rng.uniform(-perturb, perturb), rng.uniform(-perturb, perturb),
                        rng.uniform(-perturb, perturb)};
        }
        block.set_point(i, j, k, p);
      }
    }
  }
  return block;
}

std::string temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / ("vira_grid_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace

// ---------------------------------------------------------------------------
// StructuredBlock basics
// ---------------------------------------------------------------------------

TEST(StructuredBlock, DimensionsAndCounts) {
  vg::StructuredBlock block(4, 3, 5);
  EXPECT_EQ(block.node_count(), 60);
  EXPECT_EQ(block.cell_count(), 3 * 2 * 4);
  EXPECT_THROW(vg::StructuredBlock(1, 3, 3), std::invalid_argument);
}

TEST(StructuredBlock, PointAndVelocityRoundTrip) {
  vg::StructuredBlock block(3, 3, 3);
  block.set_point(1, 2, 0, {1.5, -2.0, 0.25});
  block.set_velocity(1, 2, 0, {3.0, 4.0, 5.0});
  EXPECT_NEAR(block.point(1, 2, 0).x, 1.5, 1e-6);
  EXPECT_NEAR(block.velocity(1, 2, 0).z, 5.0, 1e-6);
}

TEST(StructuredBlock, ScalarFieldsCreatedOnDemand) {
  vg::StructuredBlock block(2, 2, 2);
  EXPECT_FALSE(block.has_scalar("pressure"));
  block.set_scalar_at("pressure", 0, 0, 0, 7.0f);
  EXPECT_TRUE(block.has_scalar("pressure"));
  EXPECT_EQ(block.scalar_at("pressure", 0, 0, 0), 7.0f);
  EXPECT_EQ(block.scalar_at("pressure", 1, 1, 1), 0.0f);
  const auto& cblock = block;
  EXPECT_THROW((void)cblock.scalar("missing"), std::out_of_range);
}

TEST(StructuredBlock, ScalarRange) {
  vg::StructuredBlock block(2, 2, 2);
  const auto field = block.scalar("s");
  for (std::size_t n = 0; n < field.size(); ++n) {
    field[n] = static_cast<float>(n);
  }
  const auto [lo, hi] = block.scalar_range("s");
  EXPECT_EQ(lo, 0.0f);
  EXPECT_EQ(hi, 7.0f);
}

TEST(StructuredBlock, BoundsTrackEdits) {
  auto block = make_box_block(3, 3, 3);
  EXPECT_NEAR(block.bounds().hi.x, 1.0, 1e-6);
  block.set_point(2, 2, 2, {5, 5, 5});
  EXPECT_NEAR(block.bounds().hi.x, 5.0, 1e-6);
}

TEST(StructuredBlock, SerializationRoundTrip) {
  auto block = make_box_block(4, 5, 3, 0.05);
  block.set_block_id(17);
  block.set_time(1.25);
  block.set_velocity(1, 1, 1, {9, 8, 7});
  block.set_scalar_at("pressure", 2, 2, 1, 3.5f);

  vira::util::ByteBuffer buf;
  block.serialize(buf);
  EXPECT_EQ(buf.size(), block.serialized_size());

  const auto restored = vg::StructuredBlock::deserialize(buf);
  EXPECT_EQ(restored.block_id(), 17);
  EXPECT_DOUBLE_EQ(restored.time(), 1.25);
  EXPECT_EQ(restored.ni(), 4);
  EXPECT_NEAR(restored.velocity(1, 1, 1).x, 9.0, 1e-6);
  EXPECT_EQ(restored.scalar_at("pressure", 2, 2, 1), 3.5f);
  EXPECT_NEAR(restored.point(3, 4, 2).x, block.point(3, 4, 2).x, 1e-9);
}

TEST(StructuredBlock, DeserializeRejectsGarbage) {
  vira::util::ByteBuffer buf;
  buf.write<std::uint32_t>(0xbadc0de);
  EXPECT_THROW(vg::StructuredBlock::deserialize(buf), std::runtime_error);
}

namespace {

/// Every array of two blocks, compared float for float over the nodes.
void expect_same_fields(const vg::StructuredBlock& a, const vg::StructuredBlock& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.scalar_names(), b.scalar_names());
  const auto same = [](std::span<const float> x, std::span<const float> y) {
    return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  EXPECT_TRUE(same(a.points_x(), b.points_x()));
  EXPECT_TRUE(same(a.points_y(), b.points_y()));
  EXPECT_TRUE(same(a.points_z(), b.points_z()));
  EXPECT_TRUE(same(a.velocity_x(), b.velocity_x()));
  EXPECT_TRUE(same(a.velocity_y(), b.velocity_y()));
  EXPECT_TRUE(same(a.velocity_z(), b.velocity_z()));
  for (const auto& name : a.scalar_names()) {
    EXPECT_TRUE(same(a.scalar(name), b.scalar(name))) << name;
  }
}

/// A 5x3x7 block (105 nodes, not a multiple of 16) with density, pressure
/// and an extra scalar, every value distinct.
vg::StructuredBlock make_odd_block() {
  auto block = make_box_block(5, 3, 7, 0.05, 9);
  vg::sample_fields(block, vg::AbcFlow(), 0.3);
  auto extra = block.scalar("zeta");
  for (std::size_t i = 0; i < extra.size(); ++i) {
    extra[i] = 0.5f + static_cast<float>(i);
  }
  block.set_block_id(4);
  block.set_time(2.5);
  return block;
}

vira::util::ByteBuffer blob_of(const vg::StructuredBlock& block) {
  vira::util::ByteBuffer blob;
  block.serialize(blob);
  return blob;
}

vg::StructuredBlock decode(const vira::util::ByteBuffer& blob) {
  vira::util::ByteReader reader(blob.bytes());
  return vg::StructuredBlock::deserialize(reader);
}

}  // namespace

TEST(StructuredBlock, RoundTripOfAnOddNodeCountWithAnExtraScalar) {
  const auto block = make_odd_block();
  const auto blob = blob_of(block);
  EXPECT_EQ(blob.size(), block.serialized_size());
  // A 75-byte header padded to 128, then 6 + 3 arrays of 112 floats each
  // (105 nodes padded to a multiple of 16).
  EXPECT_EQ(blob.size(), 128u + 9u * 112u * sizeof(float));
  const auto restored = decode(blob);
  EXPECT_EQ(restored.block_id(), 4);
  EXPECT_DOUBLE_EQ(restored.time(), 2.5);
  EXPECT_EQ(restored.ni(), 5);
  EXPECT_EQ(restored.nj(), 3);
  EXPECT_EQ(restored.nk(), 7);
  EXPECT_EQ(restored.scalar_names(), (std::vector<std::string>{"density", "pressure", "zeta"}));
  expect_same_fields(block, restored);
  EXPECT_EQ(restored.bounds().lo.x, block.bounds().lo.x);

  // A decoded block is an ordinary one: a copy is deep, a new field and
  // edits land in it alone.
  auto edited = restored;
  edited.set_scalar_at("zeta", 0, 0, 0, -1.0f);
  edited.scalar("added")[3] = 7.0f;
  EXPECT_EQ(restored.scalar_at("zeta", 0, 0, 0), 0.5f);
  EXPECT_FALSE(restored.has_scalar("added"));
  EXPECT_EQ(edited.scalar("added")[3], 7.0f);
}

TEST(StructuredBlock, DeserializeRejectsMalformedBlobsBeforeAllocating) {
  const auto blob = blob_of(make_odd_block());
  ASSERT_NO_THROW(decode(blob));

  // The array-of-structs format this one replaced ("VMB1") is not read.
  vira::util::ByteBuffer vmb1;
  vmb1.write<std::uint32_t>(0x564d4231);
  for (const std::int32_t value : {5, 3, 7, 4}) {
    vmb1.write<std::int32_t>(value);
  }
  vmb1.write<double>(2.5);
  vmb1.write<std::uint64_t>(105 * 3);
  EXPECT_THROW(decode(vmb1), std::runtime_error);

  // One byte short.
  vira::util::ByteBuffer cut(std::vector<std::byte>(blob.data(), blob.data() + blob.size() - 1));
  EXPECT_THROW(decode(cut), std::out_of_range);

  // Header fields patched in place: dims at offset 4, scalar count at 28.
  const auto patched = [&](std::size_t offset, auto value) {
    vira::util::ByteBuffer copy = blob;
    std::memcpy(copy.data() + offset, &value, sizeof(value));
    return copy;
  };
  // 2^22 * 2^21 * 2^21 nodes wrap 64 bits to 0: a size computed by
  // multiplying would ask for no bytes at all and pass.
  auto overflow = patched(4, std::int32_t{1} << 22);
  const std::int32_t half = std::int32_t{1} << 21;
  std::memcpy(overflow.data() + 8, &half, sizeof(half));
  std::memcpy(overflow.data() + 12, &half, sizeof(half));
  EXPECT_THROW(decode(overflow), std::out_of_range);
  EXPECT_THROW(decode(patched(4, std::int32_t{1})), std::runtime_error);
  EXPECT_THROW(decode(patched(28, std::numeric_limits<std::uint32_t>::max())),
               std::out_of_range);
  // Names out of their sorted order ("zensity" before "pressure"): the
  // arrays would land under the wrong names.
  EXPECT_THROW(decode(patched(40, 'z')), std::runtime_error);
}

TEST(StructuredBlock, DecodeAfterDropReusesTheThreadsSlab) {
  const auto blob = blob_of(make_odd_block());
  const float* first = nullptr;
  {
    const auto block = decode(blob);
    first = block.points_x().data();
  }
  const auto again = decode(blob);
  EXPECT_EQ(again.points_x().data(), first);
  // While `again` holds the slab, a second decode gets a slab of its own.
  const auto other = decode(blob);
  EXPECT_NE(other.points_x().data(), again.points_x().data());
  expect_same_fields(again, other);
}

TEST(StructuredBlock, BlocksDecodedOnOneThreadDropCleanlyOnAnother) {
  // The dropping thread never decodes: its slab slot must still free what
  // it parks (the sanitizer legs see a leak or a race otherwise).
  const auto reference = make_odd_block();
  const auto blob = blob_of(reference);
  std::vector<vg::StructuredBlock> decoded;
  std::thread decoder([&] {
    for (int n = 0; n < 16; ++n) {
      decoded.push_back(decode(blob));
    }
  });
  decoder.join();
  std::thread dropper([&] {
    for (const auto& block : decoded) {
      expect_same_fields(reference, block);
    }
    decoded.clear();
  });
  dropper.join();
  EXPECT_TRUE(decoded.empty());
}

// ---------------------------------------------------------------------------
// Interpolation and inversion
// ---------------------------------------------------------------------------

TEST(StructuredBlock, InterpolatePositionMatchesCorners) {
  auto block = make_box_block(3, 3, 3, 0.1);
  const vg::CellCoord corner{1, 1, 1, 0.0, 0.0, 0.0};
  EXPECT_NEAR((block.interpolate_position(corner) - block.point(1, 1, 1)).norm(), 0.0, 1e-7);
  const vg::CellCoord far{1, 1, 1, 1.0, 1.0, 1.0};
  EXPECT_NEAR((block.interpolate_position(far) - block.point(2, 2, 2)).norm(), 0.0, 1e-7);
}

TEST(StructuredBlock, WorldToLocalRoundTripOnCurvilinearCells) {
  auto block = make_box_block(5, 5, 5, 0.04);
  vira::util::Rng rng(33);
  int tested = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const vg::CellCoord truth{static_cast<int>(rng.next_below(4)),
                              static_cast<int>(rng.next_below(4)),
                              static_cast<int>(rng.next_below(4)),
                              rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                              rng.uniform(0.05, 0.95)};
    const vm::Vec3 p = block.interpolate_position(truth);
    const auto found = block.world_to_local(truth.i, truth.j, truth.k, p);
    ASSERT_TRUE(found.has_value());
    EXPECT_NEAR(found->u, truth.u, 1e-6);
    EXPECT_NEAR(found->v, truth.v, 1e-6);
    EXPECT_NEAR(found->w, truth.w, 1e-6);
    ++tested;
  }
  EXPECT_EQ(tested, 200);
}

TEST(StructuredBlock, WorldToLocalRejectsOutsidePoints) {
  auto block = make_box_block(3, 3, 3);
  EXPECT_FALSE(block.world_to_local(0, 0, 0, {5.0, 5.0, 5.0}).has_value());
  // Point in a *different* cell must be rejected for this cell.
  EXPECT_FALSE(block.world_to_local(0, 0, 0, {0.9, 0.9, 0.9}).has_value());
}

TEST(StructuredBlock, InterpolateVelocityIsTrilinear) {
  auto block = make_box_block(2, 2, 2);
  for (int k = 0; k < 2; ++k) {
    for (int j = 0; j < 2; ++j) {
      for (int i = 0; i < 2; ++i) {
        // A field linear in position is reproduced exactly by trilinear
        // interpolation on a unit cell.
        const auto p = block.point(i, j, k);
        block.set_velocity(i, j, k, {2 * p.x + 1, 3 * p.y, -p.z});
      }
    }
  }
  const vg::CellCoord mid{0, 0, 0, 0.3, 0.6, 0.2};
  const auto u = block.interpolate_velocity(mid);
  EXPECT_NEAR(u.x, 2 * 0.3 + 1, 1e-6);
  EXPECT_NEAR(u.y, 3 * 0.6, 1e-6);
  EXPECT_NEAR(u.z, -0.2, 1e-6);
}

// ---------------------------------------------------------------------------
// Gradients
// ---------------------------------------------------------------------------

TEST(StructuredBlock, VelocityGradientOfLinearField) {
  // u = A x exactly recoverable on any grid, including curvilinear ones.
  auto block = make_box_block(6, 6, 6, 0.03);
  const vm::Mat3 a = vm::Mat3::from_rows({1, 2, 0}, {0, -1, 3}, {2, 0, 1});
  for (int k = 0; k < 6; ++k) {
    for (int j = 0; j < 6; ++j) {
      for (int i = 0; i < 6; ++i) {
        block.set_velocity(i, j, k, a * block.point(i, j, k));
      }
    }
  }
  for (auto [i, j, k] : {std::array<int, 3>{2, 3, 2}, {0, 0, 0}, {5, 5, 5}, {1, 4, 3}}) {
    const vm::Mat3 g = block.velocity_gradient(i, j, k);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_NEAR(g(r, c), a(r, c), 5e-4) << "node " << i << "," << j << "," << k;
      }
    }
  }
}

TEST(StructuredBlock, Lambda2NegativeInsideAnalyticVortexCore) {
  // Sample a Lamb–Oseen vortex; λ2 of the gradient must be negative near
  // the core and non-negative far outside.
  vg::LambOseenVortex vortex({0.5, 0.5, 0.5}, {0, 0, 1}, 2.0, 0.15);
  auto block = make_box_block(17, 17, 9);
  vg::sample_fields(block, vortex, 0.0);

  const vm::Mat3 g_core = block.velocity_gradient(8, 8, 4);  // on the axis
  EXPECT_LT(vm::lambda2_of(g_core), 0.0);

  const vm::Mat3 g_far = block.velocity_gradient(0, 0, 4);  // far corner
  EXPECT_GT(vm::lambda2_of(g_far), -1e-3);
}

// ---------------------------------------------------------------------------
// Coarsening
// ---------------------------------------------------------------------------

TEST(StructuredBlock, CoarsenedKeepsBoundariesAndFields) {
  auto block = make_box_block(9, 9, 9);
  block.set_block_id(3);
  block.scalar("pressure");
  const auto coarse = block.coarsened(4);
  EXPECT_EQ(coarse.ni(), 3);  // 0, 4, 8
  EXPECT_EQ(coarse.block_id(), 3);
  EXPECT_TRUE(coarse.has_scalar("pressure"));
  EXPECT_NEAR((coarse.point(2, 2, 2) - block.point(8, 8, 8)).norm(), 0.0, 1e-7);
  EXPECT_NEAR((coarse.point(0, 0, 0) - block.point(0, 0, 0)).norm(), 0.0, 1e-7);
}

TEST(StructuredBlock, CoarsenedStrideOneIsIdentityShape) {
  auto block = make_box_block(5, 4, 3);
  const auto coarse = block.coarsened(1);
  EXPECT_EQ(coarse.ni(), 5);
  EXPECT_EQ(coarse.nj(), 4);
  EXPECT_EQ(coarse.nk(), 3);
}

// ---------------------------------------------------------------------------
// CellLocator
// ---------------------------------------------------------------------------

TEST(CellLocator, FindsRandomInteriorPoints) {
  auto block = make_box_block(8, 8, 8, 0.02);
  vg::CellLocator locator(block);
  vira::util::Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const vg::CellCoord truth{static_cast<int>(rng.next_below(7)),
                              static_cast<int>(rng.next_below(7)),
                              static_cast<int>(rng.next_below(7)),
                              rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                              rng.uniform(0.1, 0.9)};
    const vm::Vec3 p = block.interpolate_position(truth);
    const auto found = locator.locate(p);
    ASSERT_TRUE(found.has_value()) << "trial " << trial;
    const vm::Vec3 back = block.interpolate_position(*found);
    EXPECT_NEAR((back - p).norm(), 0.0, 1e-6);
  }
}

TEST(CellLocator, RejectsOutsidePoints) {
  auto block = make_box_block(4, 4, 4);
  vg::CellLocator locator(block);
  EXPECT_FALSE(locator.locate({2.0, 0.5, 0.5}).has_value());
  EXPECT_FALSE(locator.locate({-0.5, 0.5, 0.5}).has_value());
}

TEST(CellLocator, HintAcceleratedLookupAgrees) {
  auto block = make_box_block(8, 8, 8, 0.02);
  vg::CellLocator locator(block);
  // Walk a straight path; each step uses the previous cell as hint.
  vg::CellCoord hint{0, 0, 0, 0.5, 0.5, 0.5};
  for (double s = 0.05; s < 0.95; s += 0.02) {
    const vm::Vec3 p{s, s, s};
    const auto found = locator.locate(p, hint);
    ASSERT_TRUE(found.has_value());
    const vm::Vec3 back = block.interpolate_position(*found);
    EXPECT_NEAR((back - p).norm(), 0.0, 1e-6);
    hint = *found;
  }
}

// ---------------------------------------------------------------------------
// BspTree
// ---------------------------------------------------------------------------

TEST(BspTree, LeafRangesPartitionTheBlock) {
  auto block = make_box_block(9, 7, 5);
  const auto field = block.scalar("s");
  for (std::size_t n = 0; n < field.size(); ++n) {
    field[n] = static_cast<float>(n % 17);
  }
  vg::BspTree tree(block, "s", {16});
  std::int64_t covered = 0;
  tree.traverse_unordered(/*iso=*/8.0f, [&](const vg::CellRange& range) {
    covered += range.cell_count();
  });
  // iso=8 lies inside every leaf's range for this synthetic field, so the
  // leaves must cover all cells exactly once.
  EXPECT_EQ(covered, block.cell_count());
}

TEST(BspTree, PrunesOutOfRangeIso) {
  auto block = make_box_block(9, 9, 9);
  const auto field = block.scalar("s");
  for (std::size_t n = 0; n < field.size(); ++n) {
    field[n] = 1.0f;
  }
  vg::BspTree tree(block, "s", {8});
  int visits = 0;
  tree.traverse({0, 0, 0}, 5.0f, [&](const vg::CellRange&) { ++visits; });
  EXPECT_EQ(visits, 0);
  const auto [lo, hi] = tree.root_range();
  EXPECT_EQ(lo, 1.0f);
  EXPECT_EQ(hi, 1.0f);
}

TEST(BspTree, FrontToBackOrderRespectsViewpoint) {
  auto block = make_box_block(17, 3, 3);
  const auto field = block.scalar("s");
  for (std::size_t n = 0; n < field.size(); ++n) {
    field[n] = 0.0f;  // all leaves active at iso 0
  }
  vg::BspTree tree(block, "s", {4});

  auto collect = [&](const vm::Vec3& viewpoint) {
    std::vector<double> centers;
    tree.traverse(viewpoint, 0.0f, [&](const vg::CellRange& range) {
      centers.push_back(0.5 * (range.i0 + range.i1));
    });
    return centers;
  };

  // Viewer on the -x side: leaves must arrive with ascending x.
  const auto from_left = collect({-10, 0.5, 0.5});
  for (std::size_t n = 1; n < from_left.size(); ++n) {
    EXPECT_LE(from_left[n - 1], from_left[n]);
  }
  // Viewer on the +x side: descending x.
  const auto from_right = collect({10, 0.5, 0.5});
  for (std::size_t n = 1; n < from_right.size(); ++n) {
    EXPECT_GE(from_right[n - 1], from_right[n]);
  }
}

TEST(BspTree, LeafSizeRespected) {
  auto block = make_box_block(17, 17, 17);
  block.scalar("s");
  vg::BspTree tree(block, "s", {32});
  tree.traverse_unordered(0.0f, [&](const vg::CellRange& range) {
    EXPECT_LE(range.cell_count(), 32);
    EXPECT_GT(range.cell_count(), 0);
  });
  EXPECT_GT(tree.leaf_count(), 1u);
}

// ---------------------------------------------------------------------------
// Dataset I/O
// ---------------------------------------------------------------------------

TEST(DatasetIo, WriteReadRoundTrip) {
  const auto dir = temp_dir("roundtrip");
  vg::UniformFlow flow({1, 2, 3});
  const auto meta = vg::generate_box(dir, flow, /*timesteps=*/3, 5, 4, 3, {0, 0, 0}, {1, 1, 1},
                                     0.1, /*nblocks=*/2);
  EXPECT_EQ(meta.timestep_count(), 3);
  EXPECT_EQ(meta.block_count(), 2);
  EXPECT_GT(meta.total_bytes(), 0u);

  vg::DatasetReader reader(dir);
  EXPECT_EQ(reader.meta().name, "Box");
  const auto block = reader.read_block(1, 1);
  EXPECT_EQ(block.block_id(), 1);
  EXPECT_NEAR(block.time(), 0.1, 1e-12);
  EXPECT_NEAR(block.velocity(0, 0, 0).y, 2.0, 1e-6);
  EXPECT_TRUE(block.has_scalar("pressure"));
  EXPECT_TRUE(block.has_scalar("density"));
  std::filesystem::remove_all(dir);
}

TEST(DatasetIo, PartialBlockReadMatchesFullDecode) {
  const auto dir = temp_dir("partial");
  vg::AbcFlow flow;
  vg::generate_box(dir, flow, 2, 4, 4, 4, {0, 0, 0}, {1, 1, 1}, 0.1, 3);
  vg::DatasetReader reader(dir);
  // Raw bytes of block 2 decode to the same content as read_block.
  auto bytes = reader.read_block_bytes(1, 2);
  const auto from_bytes = vg::StructuredBlock::deserialize(bytes);
  const auto direct = reader.read_block(1, 2);
  EXPECT_EQ(from_bytes.block_id(), direct.block_id());
  EXPECT_NEAR((from_bytes.point(3, 3, 3) - direct.point(3, 3, 3)).norm(), 0.0, 1e-12);
  std::filesystem::remove_all(dir);
}

TEST(DatasetIo, MetaSerializationRoundTrip) {
  vg::DatasetMeta meta;
  meta.name = "Test";
  meta.scalar_fields = {"pressure", "density"};
  vg::TimestepInfo step;
  step.time = 0.5;
  step.filename = "step_0000.vmb";
  vg::BlockInfo block;
  block.id = 7;
  block.ni = 4;
  block.nj = 5;
  block.nk = 6;
  block.offset = 128;
  block.size = 4096;
  block.bounds = vm::Aabb({0, 0, 0}, {1, 2, 3});
  step.blocks.push_back(block);
  meta.steps.push_back(step);

  vira::util::ByteBuffer buf;
  meta.serialize(buf);
  const auto restored = vg::DatasetMeta::deserialize(buf);
  EXPECT_EQ(restored.name, "Test");
  ASSERT_EQ(restored.steps.size(), 1u);
  EXPECT_EQ(restored.steps[0].blocks[0].size, 4096u);
  EXPECT_NEAR(restored.steps[0].blocks[0].bounds.hi.z, 3.0, 1e-12);
}

TEST(DatasetIo, ReaderRejectsMissingDirectory) {
  EXPECT_THROW(vg::DatasetReader("/nonexistent/vira/dir"), std::runtime_error);
}

TEST(DatasetIo, EnsureDatasetRegeneratesOnlyAnUnreadableCache) {
  const auto dir = temp_dir("ensure");
  int generated = 0;
  const auto generate = [&] {
    ++generated;
    vg::generate_box(dir, vg::UniformFlow({1, 0, 0}), 1, 3, 3, 3, {0, 0, 0}, {1, 1, 1}, 0.1, 2);
  };
  EXPECT_EQ(vg::ensure_dataset(dir, generate).block_count(), 2);  // missing
  EXPECT_EQ(vg::ensure_dataset(dir, generate).block_count(), 2);  // readable: kept
  EXPECT_EQ(generated, 1);

  // An index another format version wrote does not parse: regenerated.
  vira::util::ByteBuffer foreign;
  foreign.write<std::uint32_t>(0xdeadbeef);
  vg::write_file(dir + "/dataset.vmi", foreign);
  EXPECT_EQ(vg::ensure_dataset(dir, generate).block_count(), 2);
  EXPECT_EQ(generated, 2);

  // A well-formed index of the previous version ("VMI1", whose .vmb files
  // hold the old block format) is regenerated too.
  auto index = vg::read_file(dir + "/dataset.vmi");
  const std::uint32_t vmi1 = 0x564d4931;
  std::memcpy(index.data(), &vmi1, sizeof(vmi1));
  vg::write_file(dir + "/dataset.vmi", index);
  EXPECT_EQ(vg::ensure_dataset(dir, generate).block_count(), 2);
  EXPECT_EQ(generated, 3);
  EXPECT_NO_THROW(vg::DatasetReader(dir).read_block(0, 1));

  // A generator that leaves nothing readable is an error, tried once.
  EXPECT_THROW(vg::ensure_dataset(dir + "_empty", [&] { ++generated; }), std::runtime_error);
  EXPECT_EQ(generated, 4);
  std::filesystem::remove_all(dir);
}

TEST(DatasetIo, WriterEnforcesProtocol) {
  const auto dir = temp_dir("protocol");
  vg::DatasetWriter writer(dir, "X");
  EXPECT_THROW(writer.end_timestep(), std::logic_error);
  writer.begin_timestep(0.0);
  EXPECT_THROW(writer.begin_timestep(1.0), std::logic_error);
  EXPECT_THROW(writer.finish(), std::logic_error);
  writer.end_timestep();
  (void)writer.finish();
  EXPECT_THROW(writer.finish(), std::logic_error);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Synthetic datasets
// ---------------------------------------------------------------------------

TEST(Synthetic, EngineHasPaperBlockAndStepCounts) {
  const auto dir = temp_dir("engine");
  vg::GeneratorConfig config;
  config.directory = dir;
  config.timesteps = 2;  // keep the test fast; default is 63
  config.ni = 8;
  config.nj = 6;
  config.nk = 5;
  const auto meta = vg::generate_engine(config);
  EXPECT_EQ(meta.block_count(), 23);
  EXPECT_EQ(meta.timestep_count(), 2);
  EXPECT_EQ(meta.name, "Engine");
  // Every block decodes and has the expected fields.
  vg::DatasetReader reader(dir);
  const auto block = reader.read_block(0, 11);
  EXPECT_TRUE(block.has_scalar("pressure"));
  EXPECT_TRUE(block.has_scalar("density"));
  EXPECT_GT(block.bounds().diagonal(), 0.0);
  std::filesystem::remove_all(dir);
}

TEST(Synthetic, PropfanHasPaperBlockAndStepCounts) {
  const auto dir = temp_dir("propfan");
  vg::GeneratorConfig config;
  config.directory = dir;
  config.timesteps = 1;
  config.ni = 6;
  config.nj = 5;
  config.nk = 4;
  const auto meta = vg::generate_propfan(config);
  EXPECT_EQ(meta.block_count(), 144);
  EXPECT_EQ(meta.timestep_count(), 1);
  std::filesystem::remove_all(dir);
}

TEST(Synthetic, EngineFlowIsUnsteady) {
  const auto flow = vg::make_engine_flow();
  const vm::Vec3 p{0.01, 0.01, 0.05};
  const auto u0 = flow->velocity(p, 0.0);
  const auto u1 = flow->velocity(p, 0.05);
  EXPECT_GT((u1 - u0).norm(), 1e-6);
}

TEST(Synthetic, PropfanRowsCounterRotate) {
  const auto flow = vg::make_propfan_flow();
  // Tangential velocity near the front rotor vs the rear rotor has opposite
  // swirl sense. Probe at (x=∓0.25, y=0.6, z=0): swirl shows up in z.
  const auto front = flow->velocity({-0.25, 0.6, 0.0}, 0.0);
  const auto rear = flow->velocity({0.25, 0.6, 0.0}, 0.0);
  EXPECT_LT(front.z * rear.z, 0.0);
}

TEST(Synthetic, BlocksTileWithoutHugeGaps) {
  // Adjacent engine sector blocks must share their interface surfaces —
  // consecutive sectors touch along constant-θ faces.
  const auto dir = temp_dir("tiling");
  vg::GeneratorConfig config;
  config.directory = dir;
  config.timesteps = 1;
  config.ni = 6;
  config.nj = 6;
  config.nk = 4;
  vg::generate_engine(config);
  vg::DatasetReader reader(dir);
  const auto meta = reader.meta();
  // Bounding boxes of consecutive annular sectors overlap (shared face).
  for (int b = 1; b + 1 < 12; ++b) {
    const auto& first = meta.steps[0].blocks[b].bounds;
    const auto& second = meta.steps[0].blocks[b + 1].bounds;
    EXPECT_TRUE(first.overlaps(second)) << "blocks " << b << " and " << b + 1;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Analytic fields
// ---------------------------------------------------------------------------

TEST(AnalyticFields, RigidRotationOrthogonalToRadius) {
  vg::RigidRotation rot({0, 0, 0}, {0, 0, 1}, 2.0);
  const vm::Vec3 p{1.0, 0.0, 0.0};
  const auto u = rot.velocity(p, 0.0);
  EXPECT_NEAR(u.dot(p), 0.0, 1e-12);
  EXPECT_NEAR(u.norm(), 2.0, 1e-12);
}

TEST(AnalyticFields, LambOseenPeaksNearCore) {
  vg::LambOseenVortex vortex({0, 0, 0}, {0, 0, 1}, 1.0, 0.1);
  const double v_core = vortex.velocity({0.11, 0, 0}, 0.0).norm();
  const double v_far = vortex.velocity({2.0, 0, 0}, 0.0).norm();
  const double v_center = vortex.velocity({1e-14, 0, 0}, 0.0).norm();
  EXPECT_GT(v_core, v_far);
  EXPECT_NEAR(v_center, 0.0, 1e-9);
}

TEST(AnalyticFields, SuperpositionAddsComponents) {
  vg::SuperposedFlow flow;
  flow.add(std::make_shared<vg::UniformFlow>(vm::Vec3{1, 0, 0}));
  flow.add(std::make_shared<vg::UniformFlow>(vm::Vec3{0, 2, 0}));
  const auto u = flow.velocity({0, 0, 0}, 0.0);
  EXPECT_NEAR(u.x, 1.0, 1e-12);
  EXPECT_NEAR(u.y, 2.0, 1e-12);
}

TEST(AnalyticFields, PressureDropsWithSpeed) {
  vg::UniformFlow fast({10, 0, 0});
  vg::UniformFlow slow({1, 0, 0});
  EXPECT_LT(fast.pressure({0, 0, 0}, 0.0), slow.pressure({0, 0, 0}, 0.0));
}

// ---------------------------------------------------------------------------
// Curvilinear sector geometry (the real Engine/Propfan block shapes)
// ---------------------------------------------------------------------------

class SectorGeometryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = temp_dir("sector_geom");
    vg::GeneratorConfig config;
    config.directory = dir_;
    config.timesteps = 1;
    config.ni = 10;
    config.nj = 9;
    config.nk = 7;
    vg::generate_engine(config);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }
  static std::string dir_;
};
std::string SectorGeometryTest::dir_;

TEST_F(SectorGeometryTest, LocatorRoundTripsOnAnnularSector) {
  vg::DatasetReader reader(dir_);
  // Block 5: an annular sector (curvilinear in all directions).
  const auto block = reader.read_block(0, 5);
  vg::CellLocator locator(block);
  vira::util::Rng rng(17);
  int located = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const vg::CellCoord truth{static_cast<int>(rng.next_below(block.cells_i())),
                              static_cast<int>(rng.next_below(block.cells_j())),
                              static_cast<int>(rng.next_below(block.cells_k())),
                              rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                              rng.uniform(0.1, 0.9)};
    const auto p = block.interpolate_position(truth);
    const auto found = locator.locate(p);
    ASSERT_TRUE(found.has_value()) << "trial " << trial;
    EXPECT_NEAR((block.interpolate_position(*found) - p).norm(), 0.0, 1e-6);
    ++located;
  }
  EXPECT_EQ(located, 200);
}

TEST_F(SectorGeometryTest, GradientMatchesAnalyticFlowOnSector) {
  vg::DatasetReader reader(dir_);
  auto block = reader.read_block(0, 8);
  // Overwrite velocity with a pure rigid rotation (known gradient).
  vg::RigidRotation rotation({0, 0, 0}, {0, 0, 1}, 3.0);
  for (int k = 0; k < block.nk(); ++k) {
    for (int j = 0; j < block.nj(); ++j) {
      for (int i = 0; i < block.ni(); ++i) {
        block.set_velocity(i, j, k, rotation.velocity(block.point(i, j, k), 0.0));
      }
    }
  }
  // grad u = [[0,-3,0],[3,0,0],[0,0,0]] everywhere, even on the wavy
  // curvilinear sector mesh (metric terms must cancel exactly for a linear
  // field).
  const auto g = block.velocity_gradient(4, 4, 3);
  EXPECT_NEAR(g(0, 1), -3.0, 0.05);
  EXPECT_NEAR(g(1, 0), 3.0, 0.05);
  EXPECT_NEAR(g(0, 0), 0.0, 0.05);
  EXPECT_NEAR(g(2, 2), 0.0, 0.05);
}

TEST_F(SectorGeometryTest, BspTreeOnSectorBlockCoversActiveCells) {
  vg::DatasetReader reader(dir_);
  const auto block = reader.read_block(0, 3);
  const auto [lo, hi] = block.scalar_range("density");
  const float iso = 0.5f * (lo + hi);
  vg::BspTree tree(block, "density", vg::BspTree::BuildParams{32});

  // Every active cell must appear in exactly one visited leaf range.
  std::vector<char> visited(static_cast<std::size_t>(block.cell_count()), 0);
  tree.traverse_unordered(iso, [&](const vg::CellRange& range) {
    for (int k = range.k0; k < range.k1; ++k) {
      for (int j = range.j0; j < range.j1; ++j) {
        for (int i = range.i0; i < range.i1; ++i) {
          const auto index = (static_cast<std::size_t>(k) * block.cells_j() + j) *
                                 block.cells_i() + i;
          EXPECT_EQ(visited[index], 0) << "cell visited twice";
          visited[index] = 1;
        }
      }
    }
  });
  // Check coverage: every cell whose range straddles iso was visited.
  const auto& field = block.scalar("density");
  for (int k = 0; k < block.cells_k(); ++k) {
    for (int j = 0; j < block.cells_j(); ++j) {
      for (int i = 0; i < block.cells_i(); ++i) {
        bool below = false;
        bool above = false;
        for (const auto corner : block.cell_corners(i, j, k)) {
          (field[corner] < iso ? below : above) = true;
        }
        if (below && above) {
          const auto index = (static_cast<std::size_t>(k) * block.cells_j() + j) *
                                 block.cells_i() + i;
          EXPECT_EQ(visited[index], 1)
              << "active cell (" << i << "," << j << "," << k << ") missed";
        }
      }
    }
  }
}

TEST_F(SectorGeometryTest, CoarsenedSectorKeepsBounds) {
  vg::DatasetReader reader(dir_);
  const auto block = reader.read_block(0, 12);
  const auto coarse = block.coarsened(2);
  // Bounding box of the coarse block is contained in (and close to) the
  // fine block's box — boundary nodes are kept.
  EXPECT_TRUE(block.bounds().contains(coarse.bounds().lo, 1e-9));
  EXPECT_TRUE(block.bounds().contains(coarse.bounds().hi, 1e-9));
  EXPECT_GT(coarse.bounds().diagonal(), 0.8 * block.bounds().diagonal());
}

// ---------------------------------------------------------------------------
// Propfan annular geometry (axis = x, 144 blocks)
// ---------------------------------------------------------------------------

TEST(PropfanGeometry, SectorBlocksWrapTheAnnulus) {
  const auto dir = temp_dir("propfan_geom");
  vg::GeneratorConfig config;
  config.directory = dir;
  config.timesteps = 1;
  config.ni = 6;
  config.nj = 5;
  config.nk = 4;
  const auto meta = vg::generate_propfan(config);
  ASSERT_EQ(meta.block_count(), 144);

  // Union of block bounds covers the annulus: radius extremes near hub/tip.
  const auto bounds = meta.bounds();
  EXPECT_NEAR(bounds.lo.x, -0.6, 0.05);
  EXPECT_NEAR(bounds.hi.x, 0.6, 0.05);
  EXPECT_NEAR(bounds.hi.y, 1.0, 0.05);
  EXPECT_NEAR(bounds.lo.y, -1.0, 0.05);

  // Every block decodes, is non-degenerate, and holds the machine-axis
  // freestream (positive x velocity on average).
  vg::DatasetReader reader(dir);
  double mean_ux = 0.0;
  int samples = 0;
  for (int b = 0; b < 144; b += 17) {
    const auto block = reader.read_block(0, b);
    EXPECT_GT(block.bounds().diagonal(), 0.0);
    mean_ux += block.velocity(2, 2, 2).x;
    ++samples;
  }
  EXPECT_GT(mean_ux / samples, 10.0);
  std::filesystem::remove_all(dir);
}

TEST(PropfanGeometry, Lambda2FindsTipVortices) {
  const auto dir = temp_dir("propfan_l2");
  vg::GeneratorConfig config;
  config.directory = dir;
  config.timesteps = 1;
  config.ni = 8;
  config.nj = 7;
  config.nk = 6;
  vg::generate_propfan(config);
  vg::DatasetReader reader(dir);

  // Somewhere in the annulus λ2 must go clearly negative (the rotating
  // blade-tip vortices of Fig. 5).
  float min_lambda2 = 0.0f;
  for (int b = 0; b < reader.meta().block_count(); b += 7) {
    auto block = reader.read_block(0, b);
    for (int k = 1; k < block.nk() - 1; k += 2) {
      for (int j = 1; j < block.nj() - 1; j += 2) {
        for (int i = 1; i < block.ni() - 1; i += 2) {
          min_lambda2 = std::min(
              min_lambda2,
              static_cast<float>(vm::lambda2_of(block.velocity_gradient(i, j, k))));
        }
      }
    }
  }
  EXPECT_LT(min_lambda2, -1.0f);
  std::filesystem::remove_all(dir);
}
