#pragma once

#include <functional>
#include <optional>

#include "geom/camera.hpp"
#include "render/brick_sampler.hpp"
#include "render/image.hpp"
#include "render/sampling_mask.hpp"
#include "render/transfer_function.hpp"
#include "util/thread_pool.hpp"

namespace vizcache {

/// Scalar source for the ray-caster: returns the field value at a point in
/// the normalized [-1,1]^3 frame, or nullopt where no data is available
/// (e.g. the containing block is not resident in fast memory). Non-resident
/// regions are skipped, exactly like an out-of-core renderer that can only
/// composite loaded bricks.
using VolumeSampler = std::function<std::optional<float>(const Vec3&)>;

/// Ray-casting parameters.
struct RaycastParams {
  usize image_width = 128;
  usize image_height = 128;
  double step_size = 0.01;      ///< sampling step along the ray
  float early_termination = 0.98f;  ///< stop when accumulated alpha exceeds this
  float value_min = 0.0f;       ///< value range mapped onto the transfer function
  float value_max = 1.0f;
};

/// Work counters filled by a render (both paths). `samples` counts data
/// evaluations — the denominator of the bench's ns/sample metric.
/// `skipped` counts sample positions the packet path jumped over in O(1)
/// because the containing brick was not resident; the reference path
/// evaluates those positions instead, so its `skipped` stays 0 and its
/// `samples` includes them. With early termination off, the packet path's
/// `samples + skipped` therefore does not depend on residency — a
/// regression test pins this.
struct RaycastStats {
  u64 rays = 0;        ///< rays that intersected the volume
  u64 samples = 0;     ///< scalar data evaluations along those rays
  u64 composited = 0;  ///< samples that contributed color (alpha > 0)
  u64 skipped = 0;     ///< sample positions skipped over non-resident bricks
};

/// Front-to-back compositing volume ray-caster. Perspective camera looking
/// at the origin with the camera's cone angle as vertical field of view.
/// Pass a ThreadPool to parallelize across image rows (optional).
///
/// This is the scalar reference path: one VolumeSampler call per sample,
/// piecewise-linear transfer-function scan, `pow` opacity correction. It is
/// the oracle the packet path is golden-tested against, and it renders any
/// analytic sampler.
///
/// Thread-safety: when a pool is given, each row of `image` is written by
/// exactly one task (disjoint pixels; the Image is allocated up front), and
/// `sampler` is invoked concurrently from the workers — it must be
/// const-thread-safe (AsyncPrefetcher::get_if_ready and the block stores
/// are). No locks are taken on the render hot path.
Image raycast(const Camera& camera, const VolumeSampler& sampler,
              const TransferFunction& tf, const RaycastParams& params,
              ThreadPool* pool = nullptr, RaycastStats* stats = nullptr);

/// SIMD ray-packet fast path, the renderer for resident bricks. Eight
/// coherent rays (adjacent pixels of one row) march as one packet. Each
/// lane walks the block grid with a scalar double-precision 3D-DDA that
/// resolves residency once per ray/block segment via `bricks.brick()` and
/// skips non-resident segments in O(1); the per-sample inner loop —
/// trilinear fetch through the brick's raw pointer, LUT lookup, and
/// front-to-back compositing — runs across all lanes at once through
/// util/simd.hpp (AVX2, or the identical-width portable fallback). Lanes
/// retire independently under a mask: early-out opacity termination and
/// ray exit drop a lane without disturbing the others, and when packet
/// coherence breaks at brick boundaries the corner fetches fall back from
/// one shared gather base to per-lane loads. Colors come from the
/// precomputed `lut`, whose baked step size must match `params.step_size`.
/// Sample positions are the reference path's (t_k = t_entry + k*step with
/// global k), so the two agree to LUT precision on the same residency set.
///
/// `mask` (optional) enables importance-masked adaptive sampling: blocks
/// with stride s > 1 are sampled at every s-th position of the global
/// sample lattice, with the LUT's baked opacity correction rescaled
/// exactly for the longer effective step (alpha' = 1-(1-alpha)^s, a
/// closed-form polynomial for s in {2, 4}). Strides outside {1, 2, 4} are
/// rejected. At full rate (null or all-ones mask) the golden tests bound
/// the image against the scalar oracle at 1e-3/channel; under adaptive
/// sampling the documented looser bound applies (see DESIGN.md).
///
/// Thread-safety: same contract as the reference overload;
/// `bricks.brick()` is called concurrently from render workers.
Image raycast_packet(const Camera& camera, const BrickSampler& bricks,
                     const TransferFunctionLUT& lut,
                     const RaycastParams& params, ThreadPool* pool = nullptr,
                     RaycastStats* stats = nullptr,
                     const SamplingMask* mask = nullptr);

/// Compile-time lane width of the packet path (8 in both the AVX2 and the
/// portable fallback build).
usize raycast_packet_width();

/// True when the packet path was compiled against native AVX2 intrinsics,
/// false in the portable scalar-width fallback build (-DVIZCACHE_SIMD=OFF
/// or a compiler without -mavx2).
bool raycast_packet_native();

}  // namespace vizcache
