#include "volume/block_grid.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace vizcache {
namespace {

TEST(BlockGrid, EvenPartition) {
  BlockGrid grid({64, 64, 64}, {16, 16, 16});
  EXPECT_EQ(grid.grid_dims(), Dims3(4, 4, 4));
  EXPECT_EQ(grid.block_count(), 64u);
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    EXPECT_EQ(grid.block_voxels(id), 16u * 16 * 16);
  }
}

TEST(BlockGrid, UnevenPartitionClipsEdges) {
  BlockGrid grid({10, 10, 10}, {4, 4, 4});
  EXPECT_EQ(grid.grid_dims(), Dims3(3, 3, 3));
  // Corner block is 2x2x2.
  BlockId corner = grid.id_of({2, 2, 2});
  EXPECT_EQ(grid.block_voxel_extent(corner), Dims3(2, 2, 2));
  EXPECT_EQ(grid.block_voxels(corner), 8u);
  EXPECT_EQ(grid.block_bytes(corner), 32u);
}

TEST(BlockGrid, IdCoordRoundTrip) {
  BlockGrid grid({32, 48, 64}, {8, 8, 8});
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    EXPECT_EQ(grid.id_of(grid.coord_of(id)), id);
  }
}

TEST(BlockGrid, VoxelsSumToVolume) {
  BlockGrid grid({30, 17, 23}, {8, 8, 8});
  usize total = 0;
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    total += grid.block_voxels(id);
  }
  EXPECT_EQ(total, 30u * 17 * 23);
  EXPECT_EQ(grid.total_bytes(), u64{total} * 4);
}

TEST(BlockGrid, BoundsCoverNormalizedCube) {
  BlockGrid grid({20, 20, 20}, {5, 5, 5});
  AABB all = grid.block_bounds(0);
  for (BlockId id = 1; id < grid.block_count(); ++id) {
    all = all.united(grid.block_bounds(id));
  }
  EXPECT_NEAR(all.lo.x, -1.0, 1e-12);
  EXPECT_NEAR(all.hi.x, 1.0, 1e-12);
  EXPECT_NEAR(all.lo.z, -1.0, 1e-12);
  EXPECT_NEAR(all.hi.z, 1.0, 1e-12);
}

TEST(BlockGrid, BoundsDisjointInteriors) {
  BlockGrid grid({16, 16, 16}, {8, 8, 8});
  for (BlockId a = 0; a < grid.block_count(); ++a) {
    for (BlockId b = a + 1; b < grid.block_count(); ++b) {
      AABB ba = grid.block_bounds(a), bb = grid.block_bounds(b);
      // Shrink slightly: neighbors share faces.
      Vec3 eps{1e-9, 1e-9, 1e-9};
      AABB inner(ba.lo + eps, ba.hi - eps);
      bool overlap = inner.intersects(AABB(bb.lo + eps, bb.hi - eps));
      EXPECT_FALSE(overlap) << "blocks " << a << " and " << b;
    }
  }
}

TEST(BlockGrid, BlockAtNormalizedFindsOwner) {
  BlockGrid grid({24, 24, 24}, {8, 8, 8});
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    Vec3 c = grid.block_bounds(id).center();
    EXPECT_EQ(grid.block_at_normalized(c), id);
  }
}

TEST(BlockGrid, BlockAtNormalizedOutside) {
  BlockGrid grid({8, 8, 8}, {4, 4, 4});
  EXPECT_EQ(grid.block_at_normalized({1.5, 0, 0}), kInvalidBlock);
  EXPECT_EQ(grid.block_at_normalized({0, -1.2, 0}), kInvalidBlock);
}

TEST(BlockGrid, WithTargetBlockCountCube) {
  BlockGrid grid = BlockGrid::with_target_block_count({128, 128, 128}, 512);
  // 8x8x8 split expected for a cube.
  EXPECT_EQ(grid.block_count(), 512u);
  EXPECT_EQ(grid.block_dims(), Dims3(16, 16, 16));
}

/// Paper Fig. 9 sweeps: targets should land within 2x of the request for
/// anisotropic Table I volumes.
class TargetBlockTest : public ::testing::TestWithParam<usize> {};

TEST_P(TargetBlockTest, CloseToTarget) {
  usize target = GetParam();
  for (Dims3 dims : {Dims3{200, 172, 54}, Dims3{256, 256, 256},
                     Dims3{74, 65, 25}}) {
    BlockGrid grid = BlockGrid::with_target_block_count(dims, target);
    EXPECT_GE(grid.block_count(), target / 2) << dims.to_string();
    EXPECT_LE(grid.block_count(), target * 2) << dims.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, TargetBlockTest,
                         ::testing::Values(64, 256, 1024, 2048, 4096));

TEST(BlockGrid, InvalidConstruction) {
  EXPECT_THROW(BlockGrid({0, 4, 4}, {2, 2, 2}), InvalidArgument);
  EXPECT_THROW(BlockGrid({4, 4, 4}, {0, 2, 2}), InvalidArgument);
  EXPECT_THROW(BlockGrid::with_target_block_count({4, 4, 4}, 0),
               InvalidArgument);
}

TEST(BlockGrid, OutOfRangeAccessThrows) {
  BlockGrid grid({8, 8, 8}, {4, 4, 4});
  EXPECT_THROW(grid.coord_of(8), InvalidArgument);
  EXPECT_THROW(grid.id_of({2, 0, 0}), InvalidArgument);
}

TEST(BlockGrid, AllBlocksEnumerates) {
  BlockGrid grid({8, 8, 8}, {4, 4, 4});
  auto all = grid.all_blocks();
  ASSERT_EQ(all.size(), 8u);
  for (usize i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

}  // namespace
}  // namespace vizcache
