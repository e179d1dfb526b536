#include "core/visibility.hpp"

#include "util/error.hpp"

namespace vizcache {

BlockBoundsIndex::BlockBoundsIndex(const BlockGrid& grid)
    : octree_(BlockOctree::build(grid)) {
  bounds_.reserve(grid.block_count());
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    bounds_.push_back(grid.block_bounds(id));
  }
}

std::vector<BlockId> BlockBoundsIndex::visible_blocks(
    const Camera& camera) const {
  // Hierarchical cull; exact leaf test inside — identical output to the
  // exhaustive scan over bounds_.
  return octree_.query_frustum(ConeFrustum(camera));
}

void BlockBoundsIndex::mark_visible(const Camera& camera,
                                    std::vector<u8>& mask) const {
  VIZ_REQUIRE(mask.size() == bounds_.size(), "mask size mismatch");
  for (BlockId id : octree_.query_frustum(ConeFrustum(camera))) {
    mask[id] = 1;
  }
}

}  // namespace vizcache
