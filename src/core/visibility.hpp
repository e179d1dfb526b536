#pragma once

#include <vector>

#include "geom/camera.hpp"
#include "geom/frustum.hpp"
#include "volume/block_grid.hpp"
#include "volume/octree.hpp"

namespace vizcache {

/// Visibility index for fast repeated sweeps over the same grid (table
/// construction tests every block against thousands of sampled frustums).
/// Backed by a bounding-volume octree so narrow frustums prune whole
/// subtrees; results are identical to the exhaustive per-block scan (the
/// BlockOctree tests hold them to one).
class BlockBoundsIndex {
 public:
  explicit BlockBoundsIndex(const BlockGrid& grid);

  usize block_count() const { return octree_.leaf_count(); }

  /// Exact visible set of one camera: all blocks whose AABB intersects the
  /// view cone (paper Eq. 1 test). Ids in ascending order.
  std::vector<BlockId> visible_blocks(const Camera& camera) const;

  /// Append to an existing boolean mask (used for vicinal-union building:
  /// cheaper than set operations).
  void mark_visible(const Camera& camera, std::vector<u8>& mask) const;

 private:
  BlockOctree octree_;
};

}  // namespace vizcache
