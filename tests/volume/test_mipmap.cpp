#include "volume/mipmap.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

TEST(Downsample, HalvesDimsRoundingUp) {
  Field3D f({10, 7, 1});
  Field3D d = downsample_field(f);
  EXPECT_EQ(d.dims(), Dims3(5, 4, 1));
}

TEST(Downsample, AveragesBoxes) {
  Field3D f({2, 2, 2});
  float v = 0.0f;
  for (usize z = 0; z < 2; ++z)
    for (usize y = 0; y < 2; ++y)
      for (usize x = 0; x < 2; ++x) f.at(x, y, z) = v++;
  Field3D d = downsample_field(f);
  EXPECT_EQ(d.dims(), Dims3(1, 1, 1));
  EXPECT_FLOAT_EQ(d.at(0, 0, 0), 3.5f);  // mean of 0..7
}

TEST(Downsample, PreservesConstantFields) {
  Field3D f({9, 9, 9}, 2.5f);
  Field3D d = downsample_field(f);
  for (float v : d.values()) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(Downsample, PreservesMean) {
  Field3D f = rasterize(make_ball_volume({16, 16, 16}));
  double mean0 = 0.0;
  for (float v : f.values()) mean0 += static_cast<double>(v);
  mean0 /= static_cast<double>(f.voxels());
  Field3D d = downsample_field(f);
  double mean1 = 0.0;
  for (float v : d.values()) mean1 += static_cast<double>(v);
  mean1 /= static_cast<double>(d.voxels());
  EXPECT_NEAR(mean0, mean1, 0.02);
}

TEST(MipPyramid, LevelsHalve) {
  Field3D f = rasterize(make_ball_volume({32, 32, 32}));
  MipPyramid p = MipPyramid::build(std::move(f), {8, 8, 8}, 4);
  ASSERT_EQ(p.level_count(), 4u);
  EXPECT_EQ(p.field(0).dims(), Dims3(32, 32, 32));
  EXPECT_EQ(p.field(1).dims(), Dims3(16, 16, 16));
  EXPECT_EQ(p.field(3).dims(), Dims3(4, 4, 4));
}

TEST(MipPyramid, StopsAtOneVoxel) {
  Field3D f({4, 4, 4});
  MipPyramid p = MipPyramid::build(std::move(f), {4, 4, 4}, 10);
  EXPECT_EQ(p.level_count(), 3u);  // 4 -> 2 -> 1
  EXPECT_EQ(p.field(2).dims(), Dims3(1, 1, 1));
}

TEST(MipPyramid, TotalBytesNearFourThirds) {
  Field3D f = rasterize(make_ball_volume({64, 64, 64}));
  MipPyramid p = MipPyramid::build(std::move(f), {16, 16, 16}, 4);
  double overhead = static_cast<double>(p.total_bytes()) /
                    static_cast<double>(p.level_bytes(0));
  EXPECT_GT(overhead, 1.1);
  EXPECT_LT(overhead, 1.2);  // 1 + 1/8 + 1/64 + ... ~ 1.143
}

TEST(MipPyramid, KeyPackingRoundTrips) {
  Field3D f = rasterize(make_ball_volume({32, 32, 32}));
  MipPyramid p = MipPyramid::build(std::move(f), {8, 8, 8}, 3);
  for (usize level = 0; level < p.level_count(); ++level) {
    for (BlockId id = 0; id < p.grid(level).block_count(); ++id) {
      BlockId key = p.pack_key(level, id);
      EXPECT_EQ(p.level_of_key(key), level);
      EXPECT_EQ(key - p.pack_key(level, 0), id);
    }
  }
  usize expected_keys = 0;
  for (usize l = 0; l < p.level_count(); ++l) {
    expected_keys += p.grid(l).block_count();
  }
  EXPECT_EQ(p.total_keys(), expected_keys);
}

TEST(MipPyramid, KeyBytesMatchLevelBlocks) {
  Field3D f = rasterize(make_ball_volume({32, 32, 32}));
  MipPyramid p = MipPyramid::build(std::move(f), {8, 8, 8}, 3);
  // Level 1 of a 16^3 field with 8^3 blocks: full blocks of 8^3 voxels.
  BlockId key = p.pack_key(1, 0);
  EXPECT_EQ(p.key_bytes(key), 8u * 8 * 8 * 4);
}

TEST(MipPyramid, LevelGridsBlockTheirFields) {
  // Each level's grid blocks exactly that level's field: the same dims, and
  // blocks (clipped on the 6^3 and 3^3 levels) that tile every voxel once.
  Field3D f = rasterize(make_ball_volume({24, 24, 24}));
  MipPyramid p = MipPyramid::build(std::move(f), {8, 8, 8}, 4);
  ASSERT_EQ(p.level_count(), 4u);
  for (usize level = 0; level < p.level_count(); ++level) {
    const BlockGrid& grid = p.grid(level);
    EXPECT_EQ(grid.volume_dims(), p.field(level).dims());
    usize voxels = 0;
    u64 bytes = 0;
    for (BlockId id = 0; id < grid.block_count(); ++id) {
      voxels += grid.block_voxels(id);
      bytes += p.key_bytes(p.pack_key(level, id));
    }
    EXPECT_EQ(voxels, p.field(level).voxels());
    EXPECT_EQ(bytes, p.level_bytes(level));
  }
}

TEST(MipPyramid, CoarseLevelApproximatesFine) {
  Field3D f = rasterize(make_ball_volume({32, 32, 32}));
  MipPyramid p = MipPyramid::build(std::move(f), {8, 8, 8}, 2);
  // Sampling the same normalized position at both levels gives close
  // values for a smooth field.
  for (double x : {-0.5, 0.0, 0.4}) {
    float fine = p.field(0).sample_normalized(x, 0.1, -0.2);
    float coarse = p.field(1).sample_normalized(x, 0.1, -0.2);
    EXPECT_NEAR(fine, coarse, 0.12f);
  }
}

TEST(MipPyramid, InvalidAccessThrows) {
  Field3D f({8, 8, 8});
  MipPyramid p = MipPyramid::build(std::move(f), {4, 4, 4}, 2);
  EXPECT_THROW(p.field(2), InvalidArgument);
  EXPECT_THROW(p.pack_key(0, 999), InvalidArgument);
  EXPECT_THROW(p.level_of_key(static_cast<BlockId>(p.total_keys())),
               InvalidArgument);
  EXPECT_THROW(MipPyramid::build(Field3D({4, 4, 4}), {4, 4, 4}, 0),
               InvalidArgument);
}

}  // namespace
}  // namespace vizcache
