#include "volume/block_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vizcache {
namespace {

TEST(SyntheticBlockStore, AgreesWithRasterizedField) {
  // A block's payload is its region of the dense field, x-fastest within
  // the block, edge blocks clipped.
  SyntheticVolume ball = make_ball_volume({20, 20, 20});
  const Field3D f = rasterize(ball);
  SyntheticBlockStore lazy(ball, {8, 8, 8});
  const BlockGrid& grid = lazy.grid();
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    const std::vector<float> payload = lazy.read_block(id, 0, 0);
    ASSERT_EQ(payload.size(), grid.block_voxels(id));
    const Dims3 o = grid.block_voxel_origin(id);
    const Dims3 e = grid.block_voxel_extent(id);
    usize i = 0;
    for (usize z = 0; z < e.z; ++z) {
      for (usize y = 0; y < e.y; ++y) {
        for (usize x = 0; x < e.x; ++x, ++i) {
          EXPECT_EQ(payload[i], f.at(o.x + x, o.y + y, o.z + z))
              << "block " << id << " voxel " << i;
        }
      }
    }
  }
}

TEST(SyntheticBlockStore, ReadSizeMatchesBlock) {
  SyntheticBlockStore store(make_ball_volume({10, 10, 10}), {4, 4, 4});
  const BlockGrid& grid = store.grid();
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    EXPECT_EQ(store.read_block(id, 0, 0).size(), grid.block_voxels(id));
  }
}

TEST(SyntheticBlockStore, ReadsCorrectRegion) {
  // Tag voxel (5, 6, 7) of an 8^3 volume, which lives in block (1, 1, 1).
  // Voxel i of 8 sits at -1 + 2i/7 in the normalized frame.
  auto index = [](double p) { return std::lround((p + 1.0) * 3.5); };
  VolumeDesc desc;
  desc.dims = {8, 8, 8};
  SyntheticBlockStore store({desc,
                             [index](const Vec3& p, usize, usize) {
                               const bool tagged = index(p.x) == 5 &&
                                                   index(p.y) == 6 &&
                                                   index(p.z) == 7;
                               return tagged ? 42.0f : 0.0f;
                             }},
                            {4, 4, 4});
  auto payload = store.read_block(store.grid().id_of({1, 1, 1}), 0, 0);
  // Local coords (1, 2, 3) in a 4x4x4 block, x-fastest.
  EXPECT_FLOAT_EQ(payload[(3 * 4 + 2) * 4 + 1], 42.0f);
  EXPECT_EQ(std::count(payload.begin(), payload.end(), 42.0f), 1);
}

TEST(SyntheticBlockStore, MultiVariableReads) {
  SyntheticVolume climate = make_climate_volume({16, 16, 8}, 6, 3);
  SyntheticBlockStore store(climate, {8, 8, 4});
  auto v0 = store.read_block(0, 0, 0);
  auto v1 = store.read_block(0, 1, 0);
  auto t1 = store.read_block(0, 1, 1);
  EXPECT_NE(v0, v1);
  EXPECT_NE(v1, t1);
  EXPECT_THROW(store.read_block(0, 6, 0), InvalidArgument);
  EXPECT_THROW(store.read_block(0, 0, 3), InvalidArgument);
}

TEST(SyntheticBlockStore, DeterministicReads) {
  SyntheticVolume flame = make_flame_volume("f", {24, 24, 24});
  SyntheticBlockStore store(flame, {8, 8, 8});
  EXPECT_EQ(store.read_block(5, 0, 0), store.read_block(5, 0, 0));
}

TEST(SyntheticBlockStore, EdgeBlocksClipped) {
  SyntheticVolume ball = make_ball_volume({10, 10, 10});
  SyntheticBlockStore store(ball, {4, 4, 4});
  BlockId corner = store.grid().id_of({2, 2, 2});
  EXPECT_EQ(store.read_block(corner, 0, 0).size(), 8u);  // 2x2x2
}

TEST(BlockStore, BlockBytesHelper) {
  SyntheticVolume ball = make_ball_volume({8, 8, 8});
  SyntheticBlockStore store(ball, {4, 4, 4});
  EXPECT_EQ(store.block_bytes(0), 4u * 4 * 4 * 4);
}

TEST(SyntheticBlockStore, OutOfRangeIdThrows) {
  SyntheticVolume ball = make_ball_volume({8, 8, 8});
  SyntheticBlockStore store(ball, {4, 4, 4});
  EXPECT_THROW(store.read_block(999, 0, 0), InvalidArgument);
}

}  // namespace
}  // namespace vizcache
