#pragma once

#include <atomic>
#include <vector>

#include "geom/frustum.hpp"
#include "volume/block_grid.hpp"

namespace vizcache {

/// Bounding-volume octree over a block grid — the hierarchical index of
/// the out-of-core literature the paper builds on (Ueng et al.'s octree
/// partition, Section II). Every node carries its bounding box and a
/// bounding sphere, so a view-cone query prunes whole subtrees with a
/// conservative sphere test instead of testing every block.
///
/// Thread-safety: const-thread-safe. The tree is immutable after build(), so
/// any number of threads may query concurrently; the only mutable member is
/// the atomic last_visits_ diagnostics counter. Mutation (move-assign) needs
/// external synchronization against concurrent queries.
class BlockOctree {
 public:
  /// Build over `grid`. Branch-on-need (as in Sutton & Hansen's T-BON):
  /// child octants that contain no blocks are not allocated.
  static BlockOctree build(const BlockGrid& grid);

  BlockOctree() = default;
  // Moves must be spelled out because of the atomic diagnostics counter.
  BlockOctree(BlockOctree&& o) noexcept
      : nodes_(std::move(o.nodes_)),
        leaves_(o.leaves_),
        height_(o.height_),
        last_visits_(o.last_visits_.load()) {}
  BlockOctree& operator=(BlockOctree&& o) noexcept {
    nodes_ = std::move(o.nodes_);
    leaves_ = o.leaves_;
    height_ = o.height_;
    last_visits_.store(o.last_visits_.load());
    return *this;
  }

  usize node_count() const { return nodes_.size(); }
  usize leaf_count() const { return leaves_; }
  usize height() const { return height_; }

  /// Blocks whose AABB intersects the view cone, ids ascending: exactly
  /// the blocks `ConeFrustum::intersects_block` keeps in a per-block scan.
  std::vector<BlockId> query_frustum(const ConeFrustum& frustum) const;

  /// Number of node visits of the last query (diagnostics: shows the
  /// pruning factor vs block_count scans). Atomic so concurrent queries on
  /// a shared tree stay race-free; concurrent callers see a mixed count.
  usize last_visits() const { return last_visits_.load(std::memory_order_relaxed); }

 private:
  struct Node {
    AABB bounds;
    Vec3 sphere_center;
    double sphere_radius = 0.0;
    i64 children[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    BlockId block = kInvalidBlock;  ///< leaf payload
    bool leaf = false;
  };

  i64 build_node(const BlockGrid& grid, usize x0, usize y0, usize z0,
                 usize x1, usize y1, usize z1, usize depth);

  void traverse(i64 node, const ConeFrustum& frustum,
                std::vector<BlockId>& out, usize& visits) const;

  std::vector<Node> nodes_;
  usize leaves_ = 0;
  usize height_ = 0;
  mutable std::atomic<usize> last_visits_{0};
};

}  // namespace vizcache
