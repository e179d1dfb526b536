#include "render/raycaster.hpp"

#include <algorithm>
#include <cmath>

#include "render/raycaster_detail.hpp"
#include "util/error.hpp"

namespace vizcache {

using render_detail::for_each_row;
using render_detail::intersect_volume;
using render_detail::make_ray_frame;
using render_detail::pixel_ray_dir;
using render_detail::RayFrame;

Image raycast(const Camera& camera, const VolumeSampler& sampler,
              const TransferFunction& tf, const RaycastParams& params,
              ThreadPool* pool, RaycastStats* stats) {
  VIZ_REQUIRE(params.step_size > 0.0, "raycast step must be positive");
  VIZ_REQUIRE(params.value_max > params.value_min, "empty value range");

  Image image(params.image_width, params.image_height);
  const RayFrame frame = make_ray_frame(camera, params);
  const float inv_range = 1.0f / (params.value_max - params.value_min);

  auto render_row = [&](usize y, RaycastStats& rs) {
    for (usize x = 0; x < params.image_width; ++x) {
      Vec3 dir = pixel_ray_dir(frame, params, x, y);
      auto hit = intersect_volume(frame.eye, dir);
      if (!hit) continue;
      ++rs.rays;

      Rgba acc{0, 0, 0, 0};
      for (double t = hit->first; t < hit->second; t += params.step_size) {
        std::optional<float> value = sampler(frame.eye + dir * t);
        ++rs.samples;
        if (!value) continue;  // brick not resident: skip this segment
        float v = std::clamp((*value - params.value_min) * inv_range, 0.0f, 1.0f);
        Rgba c = tf.sample(v);
        if (c.a <= 0.0f) continue;
        // Opacity correction for the step length relative to a unit step.
        float alpha =
            1.0f - std::pow(1.0f - c.a, static_cast<float>(params.step_size * 10.0));
        float w = alpha * (1.0f - acc.a);
        acc.r += c.r * w;
        acc.g += c.g * w;
        acc.b += c.b * w;
        acc.a += w;
        ++rs.composited;
        if (acc.a >= params.early_termination) break;
      }
      image.at(x, y) = acc;
    }
  };

  for_each_row(params, pool, stats, render_row);
  return image;
}

}  // namespace vizcache
