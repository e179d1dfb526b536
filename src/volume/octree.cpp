#include "volume/octree.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vizcache {

BlockOctree BlockOctree::build(const BlockGrid& grid) {
  BlockOctree tree;
  const Dims3& g = grid.grid_dims();
  tree.nodes_.reserve(grid.block_count() * 2);
  tree.build_node(grid, 0, 0, 0, g.x, g.y, g.z, 1);
  return tree;
}

i64 BlockOctree::build_node(const BlockGrid& grid, usize x0, usize y0,
                            usize z0, usize x1, usize y1, usize z1,
                            usize depth) {
  if (x0 >= x1 || y0 >= y1 || z0 >= z1) return -1;  // empty octant
  height_ = std::max(height_, depth);

  const i64 index = static_cast<i64>(nodes_.size());
  nodes_.emplace_back();

  if (x1 - x0 == 1 && y1 - y0 == 1 && z1 - z0 == 1) {
    Node& leaf = nodes_.back();
    leaf.leaf = true;
    leaf.block = grid.id_of({x0, y0, z0});
    leaf.bounds = grid.block_bounds(leaf.block);
    leaf.sphere_center = leaf.bounds.center();
    leaf.sphere_radius = leaf.bounds.diagonal() * 0.5;
    ++leaves_;
    return index;
  }

  // Split each axis at its midpoint (branch-on-need: degenerate halves
  // simply produce no child).
  usize xm = x0 + std::max<usize>(1, (x1 - x0) / 2);
  usize ym = y0 + std::max<usize>(1, (y1 - y0) / 2);
  usize zm = z0 + std::max<usize>(1, (z1 - z0) / 2);
  if (x1 - x0 == 1) xm = x1;
  if (y1 - y0 == 1) ym = y1;
  if (z1 - z0 == 1) zm = z1;

  const usize xs[3] = {x0, xm, x1};
  const usize ys[3] = {y0, ym, y1};
  const usize zs[3] = {z0, zm, z1};

  AABB bounds;
  bool first = true;
  usize child_slot = 0;
  for (usize cz = 0; cz < 2; ++cz) {
    for (usize cy = 0; cy < 2; ++cy) {
      for (usize cx = 0; cx < 2; ++cx) {
        i64 child = build_node(grid, xs[cx], ys[cy], zs[cz], xs[cx + 1],
                               ys[cy + 1], zs[cz + 1], depth + 1);
        nodes_[static_cast<usize>(index)].children[child_slot++] = child;
        if (child >= 0) {
          const Node& c = nodes_[static_cast<usize>(child)];
          bounds = first ? c.bounds : bounds.united(c.bounds);
          first = false;
        }
      }
    }
  }
  VIZ_CHECK(!first, "interior octree node without children");

  Node& node = nodes_[static_cast<usize>(index)];
  node.bounds = bounds;
  node.sphere_center = bounds.center();
  node.sphere_radius = bounds.diagonal() * 0.5;
  return index;
}

void BlockOctree::traverse(i64 node, const ConeFrustum& frustum,
                           std::vector<BlockId>& out, usize& visits) const {
  if (node < 0) return;
  ++visits;
  const Node& n = nodes_[static_cast<usize>(node)];
  // Conservative sphere cull for interior pruning.
  if (!frustum.may_intersect_sphere(n.sphere_center, n.sphere_radius)) return;
  if (n.leaf) {
    // Exact per-block test so results match the exhaustive scan.
    // analyze: allow(hot-path-alloc): the frustum collector grows once per
    // visible leaf per frame (not per pixel); the caller owns sizing and
    // amortization of the returned set.
    if (frustum.intersects_block(n.bounds)) out.push_back(n.block);
    return;
  }
  for (i64 child : n.children) {
    traverse(child, frustum, out, visits);
  }
}

std::vector<BlockId> BlockOctree::query_frustum(
    const ConeFrustum& frustum) const {
  std::vector<BlockId> out;
  if (nodes_.empty()) return out;
  usize visits = 0;
  traverse(0, frustum, out, visits);
  last_visits_.store(visits, std::memory_order_relaxed);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vizcache
