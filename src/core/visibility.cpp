#include "core/visibility.hpp"

#include "util/error.hpp"

namespace vizcache {

BlockBoundsIndex::BlockBoundsIndex(const BlockGrid& grid)
    : octree_(BlockOctree::build(grid)) {}

std::vector<BlockId> BlockBoundsIndex::visible_blocks(
    const Camera& camera) const {
  // Hierarchical cull; exact leaf test inside — identical output to the
  // exhaustive per-block scan.
  return octree_.query_frustum(ConeFrustum(camera));
}

void BlockBoundsIndex::mark_visible(const Camera& camera,
                                    std::vector<u8>& mask) const {
  VIZ_REQUIRE(mask.size() == block_count(), "mask size mismatch");
  for (BlockId id : octree_.query_frustum(ConeFrustum(camera))) {
    mask[id] = 1;
  }
}

}  // namespace vizcache
