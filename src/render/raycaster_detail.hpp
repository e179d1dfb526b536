#pragma once

#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "geom/camera.hpp"
#include "render/raycaster.hpp"
#include "util/thread_pool.hpp"

/// Camera/ray plumbing shared by the two raycast implementations (scalar
/// reference, SIMD ray packets). Internal to src/render — not part of the
/// public render API.

namespace vizcache::render_detail {

/// Ray/box intersection with the normalized volume [-1,1]^3; returns entry
/// and exit distances along the ray, or nullopt on a miss.
inline std::optional<std::pair<double, double>> intersect_volume(
    const Vec3& origin, const Vec3& dir) {
  double t0 = 0.0, t1 = std::numeric_limits<double>::infinity();
  const double o[3] = {origin.x, origin.y, origin.z};
  const double d[3] = {dir.x, dir.y, dir.z};
  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(d[axis]) < 1e-12) {
      if (o[axis] < -1.0 || o[axis] > 1.0) return std::nullopt;
      continue;
    }
    double inv = 1.0 / d[axis];
    double ta = (-1.0 - o[axis]) * inv;
    double tb = (1.0 - o[axis]) * inv;
    if (ta > tb) std::swap(ta, tb);
    t0 = std::max(t0, ta);
    t1 = std::min(t1, tb);
    if (t0 > t1) return std::nullopt;
  }
  return std::make_pair(t0, t1);
}

/// Camera-derived quantities shared by all render paths.
struct RayFrame {
  Vec3 eye;
  Vec3 forward;
  Vec3 right;
  Vec3 up;
  double tan_half = 0.0;
  double aspect = 1.0;
};

inline RayFrame make_ray_frame(const Camera& camera,
                               const RaycastParams& params) {
  RayFrame f;
  f.eye = camera.position();
  f.forward = camera.view_direction();
  Vec3 helper = std::abs(f.forward.z) < 0.9 ? Vec3{0, 0, 1} : Vec3{0, 1, 0};
  f.right = f.forward.cross(helper).normalized();
  f.up = f.right.cross(f.forward).normalized();
  f.tan_half = std::tan(camera.view_angle_rad() * 0.5);
  f.aspect = static_cast<double>(params.image_width) /
             static_cast<double>(params.image_height);
  return f;
}

inline Vec3 pixel_ray_dir(const RayFrame& f, const RaycastParams& params,
                          usize x, usize y) {
  double ndc_y = 1.0 - 2.0 * (static_cast<double>(y) + 0.5) /
                           static_cast<double>(params.image_height);
  double ndc_x = 2.0 * (static_cast<double>(x) + 0.5) /
                     static_cast<double>(params.image_width) -
                 1.0;
  return (f.forward + f.right * (ndc_x * f.tan_half * f.aspect) +
          f.up * (ndc_y * f.tan_half))
      .normalized();
}

/// Runs `render_row(y, row_stats)` over every image row — chunked on the
/// pool when one is given — and accumulates per-row counters into `stats`
/// (when requested) without any locking on the render path itself.
template <typename RowFn>
void for_each_row(const RaycastParams& params, ThreadPool* pool,
                  RaycastStats* stats, const RowFn& render_row) {
  std::atomic<u64> rays{0}, samples{0}, composited{0}, skipped{0};
  parallel_for(pool, 0, params.image_height, 1, [&](usize lo, usize hi) {
    RaycastStats rs;
    for (usize y = lo; y < hi; ++y) render_row(y, rs);
    if (stats != nullptr) {
      rays.fetch_add(rs.rays, std::memory_order_relaxed);
      samples.fetch_add(rs.samples, std::memory_order_relaxed);
      composited.fetch_add(rs.composited, std::memory_order_relaxed);
      skipped.fetch_add(rs.skipped, std::memory_order_relaxed);
    }
  });
  if (stats != nullptr) {
    stats->rays = rays.load();
    stats->samples = samples.load();
    stats->composited = composited.load();
    stats->skipped = skipped.load();
  }
}

}  // namespace vizcache::render_detail
