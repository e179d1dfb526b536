#pragma once

#include "geom/aabb.hpp"
#include "geom/camera.hpp"

namespace vizcache {

/// View-cone visibility test from the paper (Section IV-B, Eq. 1).
///
/// The frustum of a camera at v looking at the volume center o is modeled as
/// a cone with apex v, axis v->o, and full apex angle theta. A block b is
/// visible iff the angle phi between v->b_i and v->o is below theta/2 for
/// some corner b_i of b. We additionally treat a block as visible when the
/// camera is inside it or when the cone axis pierces it (which the corner
/// test alone can miss for blocks larger than the cone cross-section).
class ConeFrustum {
 public:
  explicit ConeFrustum(const Camera& camera);

  const Vec3& apex() const { return apex_; }
  const Vec3& axis() const { return axis_; }

  /// Is point p inside the cone?
  bool contains_point(const Vec3& p) const;

  /// Paper Eq. 1 on the eight corners, plus robustness extensions.
  bool intersects_block(const AABB& block) const;

  /// Conservative sphere test: false only when the sphere certainly lies
  /// outside the cone (no false negatives — used for hierarchical culling,
  /// e.g. octree nodes, where a wrong reject would drop a whole subtree).
  bool may_intersect_sphere(const Vec3& center, double radius) const;

 private:
  Vec3 apex_;
  Vec3 axis_;       // unit vector toward the volume center
  double half_angle_;
  double cos_half_angle_;
};

}  // namespace vizcache
