#include "volume/octree.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geom/spherical.hpp"
#include "util/rng.hpp"

namespace vizcache {
namespace {

struct OctreeWorld {
  BlockGrid grid{{48, 40, 32}, {8, 8, 8}};
  BlockOctree tree = BlockOctree::build(grid);
};

/// The oracle: every block id whose bounds intersect the cone, ascending.
std::vector<BlockId> scan_visible(const BlockGrid& grid, const Camera& cam) {
  const ConeFrustum frustum(cam);
  std::vector<BlockId> out;
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    if (frustum.intersects_block(grid.block_bounds(id))) out.push_back(id);
  }
  return out;
}

TEST(BlockOctree, LeafPerBlock) {
  OctreeWorld w;
  EXPECT_EQ(w.tree.leaf_count(), w.grid.block_count());
  EXPECT_GT(w.tree.node_count(), w.tree.leaf_count());
  EXPECT_GE(w.tree.height(), 3u);
}

TEST(BlockOctree, FrustumQueryMatchesBruteForceExactly) {
  // The headline property: hierarchical culling never changes the result.
  // Power-of-two, odd-split and deep grids, each against a per-block scan.
  const BlockGrid grids[] = {BlockGrid({48, 40, 32}, {8, 8, 8}),
                             BlockGrid({25, 15, 10}, {5, 5, 5}),
                             BlockGrid({130, 130, 130}, {10, 10, 10})};
  Rng rng(7);
  for (const BlockGrid& grid : grids) {
    const BlockOctree tree = BlockOctree::build(grid);
    for (int i = 0; i < 300; ++i) {
      Vec3 pos = direction_from_angles(rng.uniform(0.05, 3.09),
                                       rng.uniform(0.0, 6.28)) *
                 rng.uniform(2.0, 4.0);
      double angle = rng.uniform(5.0, 60.0);
      Camera cam(pos, angle);
      ASSERT_EQ(tree.query_frustum(ConeFrustum(cam)), scan_visible(grid, cam))
          << grid.block_count() << " blocks, camera " << i << " angle "
          << angle;
    }
  }
}

TEST(BlockOctree, FrustumQueryPrunes) {
  OctreeWorld w;
  Camera narrow({3, 0, 0}, 8.0);
  w.tree.query_frustum(ConeFrustum(narrow));
  usize narrow_visits = w.tree.last_visits();
  Camera wide({3, 0, 0}, 90.0);
  w.tree.query_frustum(ConeFrustum(wide));
  usize wide_visits = w.tree.last_visits();
  // The conservative sphere cull cannot reject the big near-root nodes, but
  // a narrow cone must still prune subtrees a wide cone visits.
  EXPECT_LT(narrow_visits, wide_visits);
  EXPECT_LT(narrow_visits, w.tree.node_count());
}

TEST(BlockOctree, NonPowerOfTwoGrids) {
  // 5x3x2 block grid: branch-on-need must handle odd splits.
  BlockGrid grid({25, 15, 10}, {5, 5, 5});
  BlockOctree tree = BlockOctree::build(grid);
  EXPECT_EQ(tree.leaf_count(), grid.block_count());
  Camera cam({2.5, 1.0, -0.5}, 40.0);
  EXPECT_EQ(tree.query_frustum(ConeFrustum(cam)), scan_visible(grid, cam));
}

TEST(BlockOctree, SingleBlockGrid) {
  BlockGrid grid({8, 8, 8}, {8, 8, 8});
  BlockOctree tree = BlockOctree::build(grid);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  Camera cam({3, 0, 0}, 30.0);
  auto vis = tree.query_frustum(ConeFrustum(cam));
  ASSERT_EQ(vis.size(), 1u);
  EXPECT_EQ(vis[0], 0u);
}

TEST(ConeFrustumSphere, ConservativeNoFalseNegatives) {
  // Property: whenever a block intersects the cone, its bounding sphere
  // must pass the may_intersect test.
  Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    Vec3 pos = direction_from_angles(rng.uniform(0.05, 3.09),
                                     rng.uniform(0.0, 6.28)) *
               rng.uniform(2.0, 4.0);
    Camera cam(pos, rng.uniform(5.0, 50.0));
    ConeFrustum f(cam);
    Vec3 lo{rng.uniform(-1.0, 0.6), rng.uniform(-1.0, 0.6),
            rng.uniform(-1.0, 0.6)};
    AABB box(lo, lo + Vec3{rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4),
                           rng.uniform(0.05, 0.4)});
    if (f.intersects_block(box)) {
      EXPECT_TRUE(
          f.may_intersect_sphere(box.center(), box.diagonal() * 0.5));
    }
  }
}

}  // namespace
}  // namespace vizcache
