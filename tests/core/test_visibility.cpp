#include "core/visibility.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"

namespace vizcache {
namespace {

BlockGrid cube_grid(usize blocks_per_axis = 4) {
  usize n = blocks_per_axis * 8;
  return BlockGrid({n, n, n}, {8, 8, 8});
}

TEST(Visibility, SortedUniqueIds) {
  BlockGrid grid = cube_grid();
  BlockBoundsIndex idx(grid);
  auto vis = idx.visible_blocks(Camera({2.5, 1.0, 0.3}, 25.0));
  EXPECT_TRUE(std::is_sorted(vis.begin(), vis.end()));
  EXPECT_EQ(std::adjacent_find(vis.begin(), vis.end()), vis.end());
}

TEST(Visibility, CentralBlocksAlwaysSeen) {
  BlockGrid grid = cube_grid();
  BlockBoundsIndex idx(grid);
  // The block containing the origin must be visible from any direction.
  BlockId central = grid.block_at_normalized({0.01, 0.01, 0.01});
  for (const Vec3& pos : {Vec3{3, 0, 0}, Vec3{0, 3, 0}, Vec3{-2, -2, 1}}) {
    auto vis = idx.visible_blocks(Camera(pos, 15.0));
    EXPECT_TRUE(std::binary_search(vis.begin(), vis.end(), central));
  }
}

TEST(Visibility, NarrowConeSeesSubsetOfWideCone) {
  BlockGrid grid = cube_grid();
  BlockBoundsIndex idx(grid);
  Camera narrow({3, 1, 0}, 10.0);
  Camera wide({3, 1, 0}, 40.0);
  auto a = idx.visible_blocks(narrow);
  auto b = idx.visible_blocks(wide);
  EXPECT_LT(a.size(), b.size());
  EXPECT_TRUE(std::includes(b.begin(), b.end(), a.begin(), a.end()));
}

TEST(Visibility, WideConeFromFarSeesWholeVolume) {
  BlockGrid grid = cube_grid(2);
  BlockBoundsIndex idx(grid);
  // 90-degree cone from far away: the entire [-1,1]^3 fits inside.
  auto vis = idx.visible_blocks(Camera({6, 0, 0}, 90.0));
  EXPECT_EQ(vis.size(), grid.block_count());
}

TEST(Visibility, VisibleFractionReasonableForPaperDefaults) {
  // The regime the experiments run in: a 10-degree cone at d=3 must see a
  // small fraction of the volume — well under the 25% DRAM share.
  BlockGrid grid = BlockGrid::with_target_block_count({128, 128, 128}, 2048);
  BlockBoundsIndex idx(grid);
  auto vis = idx.visible_blocks(Camera({3, 0, 0}, 10.0));
  double fraction =
      static_cast<double>(vis.size()) / static_cast<double>(grid.block_count());
  EXPECT_GT(fraction, 0.01);
  EXPECT_LT(fraction, 0.25);
}

TEST(Visibility, MarkVisibleAccumulates) {
  BlockGrid grid = cube_grid();
  BlockBoundsIndex idx(grid);
  std::vector<u8> mask(grid.block_count(), 0);
  idx.mark_visible(Camera({3, 0, 0}, 15.0), mask);
  usize first = static_cast<usize>(std::count(mask.begin(), mask.end(), 1));
  idx.mark_visible(Camera({0, 3, 0}, 15.0), mask);
  usize second = static_cast<usize>(std::count(mask.begin(), mask.end(), 1));
  EXPECT_GT(first, 0u);
  EXPECT_GT(second, first);  // union grows
}

TEST(Visibility, MarkVisibleMatchesVisibleBlocks) {
  BlockGrid grid = cube_grid();
  BlockBoundsIndex idx(grid);
  Camera cam({2, -2, 1}, 30.0);
  std::vector<u8> mask(grid.block_count(), 0);
  idx.mark_visible(cam, mask);
  auto vis = idx.visible_blocks(cam);
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    bool in_list = std::binary_search(vis.begin(), vis.end(), id);
    EXPECT_EQ(mask[id] != 0, in_list) << "block " << id;
  }
}

TEST(Visibility, MaskSizeMismatchThrows) {
  BlockGrid grid = cube_grid();
  BlockBoundsIndex idx(grid);
  std::vector<u8> wrong(3, 0);
  EXPECT_THROW(idx.mark_visible(Camera({3, 0, 0}, 15.0), wrong),
               InvalidArgument);
}

TEST(Visibility, NearbyCamerasShareMostBlocks) {
  // Observation 1 of the paper: small view changes leave the visible set
  // largely overlapped.
  BlockGrid grid = BlockGrid::with_target_block_count({96, 96, 96}, 1024);
  BlockBoundsIndex idx(grid);
  Camera a({3, 0, 0}, 15.0);
  Camera b = Camera(Vec3{3, 0.05, 0.0}, 15.0);  // ~1 degree away
  auto va = idx.visible_blocks(a);
  auto vb = idx.visible_blocks(b);
  std::vector<BlockId> inter;
  std::set_intersection(va.begin(), va.end(), vb.begin(), vb.end(),
                        std::back_inserter(inter));
  double overlap = static_cast<double>(inter.size()) /
                   static_cast<double>(std::max(va.size(), vb.size()));
  EXPECT_GT(overlap, 0.8);
}

}  // namespace
}  // namespace vizcache
