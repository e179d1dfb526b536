#pragma once

#include <vector>

#include "geom/camera.hpp"
#include "geom/frustum.hpp"
#include "volume/block_grid.hpp"
#include "volume/octree.hpp"

namespace vizcache {

/// Precomputed block bounds for fast repeated visibility sweeps over the
/// same grid (table construction tests every block against thousands of
/// sampled frustums). Internally backed by a bounding-volume octree so
/// narrow frustums prune whole subtrees; results are identical to the
/// exhaustive per-block scan (the BlockOctree tests hold them to one).
class BlockBoundsIndex {
 public:
  explicit BlockBoundsIndex(const BlockGrid& grid);

  const AABB& bounds(BlockId id) const { return bounds_[id]; }
  usize block_count() const { return bounds_.size(); }

  /// Exact visible set of one camera: all blocks whose AABB intersects the
  /// view cone (paper Eq. 1 test). Ids in ascending order.
  std::vector<BlockId> visible_blocks(const Camera& camera) const;

  /// Append to an existing boolean mask (used for vicinal-union building:
  /// cheaper than set operations).
  void mark_visible(const Camera& camera, std::vector<u8>& mask) const;

 private:
  std::vector<AABB> bounds_;
  BlockOctree octree_;
};

}  // namespace vizcache
