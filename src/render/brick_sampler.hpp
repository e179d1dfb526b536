#pragma once

#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "geom/vec3.hpp"
#include "volume/block_store.hpp"

namespace vizcache {

/// Raw, non-owning view of one resident brick's payload: the voxel window
/// [ox, ox+ex) x [oy, oy+ey) x [oz, oz+ez) of the volume, x-fastest layout.
/// A default-constructed view (null `data`) means "not resident".
struct BrickView {
  const float* data = nullptr;
  usize ox = 0;  ///< voxel origin in the volume
  usize oy = 0;
  usize oz = 0;
  usize ex = 0;  ///< voxel extent (edge bricks are clipped)
  usize ey = 0;
  usize ez = 0;

  bool resident() const { return data != nullptr; }
};

/// Trilinear sample of a brick at a normalized-frame point. Voxel centers
/// sit at i + 0.5 in voxel space, so p maps to s = (p+1)/2 * dims - 0.5 per
/// axis. Neighbor indices are clamped to the brick's own window — there is
/// no ghost layer, so values flatten across brick faces. The scalar
/// reference path funnels through this helper; the packet ray-caster runs
/// a float-precision variant of the same math across its lanes, and the
/// golden-image tests bound the difference between the two.
inline float sample_brick_trilinear(const Dims3& volume_dims,
                                    const BrickView& brick, const Vec3& p) {
  struct Axis {
    usize i0, i1;
    float f;
  };
  auto resolve = [](double np, usize dim, usize origin, usize extent) {
    double s = (np + 1.0) * 0.5 * static_cast<double>(dim) - 0.5;
    double fl = std::floor(s);
    i64 lo = static_cast<i64>(fl);
    const i64 bmin = static_cast<i64>(origin);
    const i64 bmax = static_cast<i64>(origin + extent) - 1;
    i64 c0 = lo < bmin ? bmin : (lo > bmax ? bmax : lo);
    i64 c1 = lo + 1 < bmin ? bmin : (lo + 1 > bmax ? bmax : lo + 1);
    return Axis{static_cast<usize>(c0 - bmin), static_cast<usize>(c1 - bmin),
                static_cast<float>(s - fl)};
  };
  const Axis ax = resolve(p.x, volume_dims.x, brick.ox, brick.ex);
  const Axis ay = resolve(p.y, volume_dims.y, brick.oy, brick.ey);
  const Axis az = resolve(p.z, volume_dims.z, brick.oz, brick.ez);
  const usize rx = brick.ex;
  const usize rxy = brick.ex * brick.ey;
  const float* d = brick.data;
  auto at = [&](usize x, usize y, usize z) { return d[z * rxy + y * rx + x]; };
  const float c00 = at(ax.i0, ay.i0, az.i0) +
                    (at(ax.i1, ay.i0, az.i0) - at(ax.i0, ay.i0, az.i0)) * ax.f;
  const float c10 = at(ax.i0, ay.i1, az.i0) +
                    (at(ax.i1, ay.i1, az.i0) - at(ax.i0, ay.i1, az.i0)) * ax.f;
  const float c01 = at(ax.i0, ay.i0, az.i1) +
                    (at(ax.i1, ay.i0, az.i1) - at(ax.i0, ay.i0, az.i1)) * ax.f;
  const float c11 = at(ax.i0, ay.i1, az.i1) +
                    (at(ax.i1, ay.i1, az.i1) - at(ax.i0, ay.i1, az.i1)) * ax.f;
  const float c0 = c00 + (c10 - c00) * ay.f;
  const float c1 = c01 + (c11 - c01) * ay.f;
  return c0 + (c1 - c0) * az.f;
}

/// Block-granular scalar source for the ray-caster. Where VolumeSampler
/// answers "value at this point?" per sample, a BrickSampler answers "give
/// me the whole brick" once per ray/block segment, so residency is resolved
/// O(1) per segment and sampling runs through a raw pointer.
///
/// Thread-safety: brick() must be safe to call concurrently from render
/// workers. Implementations that mutate residency (load/evict) must not do
/// so while a render is in flight.
class BrickSampler {
 public:
  virtual ~BrickSampler() = default;

  virtual const BlockGrid& grid() const = 0;

  /// View of a block's payload; `resident()` is false when it is not loaded.
  virtual BrickView brick(BlockId id) const = 0;
};

/// BrickSampler over an explicit set of loaded bricks — the render-side
/// mirror of the paper's "composite only the blocks resident in fast
/// memory". Payloads are owned here; views are precomputed per block so
/// brick() is an O(1) vector read with no hashing and no locks.
class ResidentBrickSet final : public BrickSampler {
 public:
  explicit ResidentBrickSet(const BlockGrid& grid);

  const BlockGrid& grid() const override { return grid_; }
  BrickView brick(BlockId id) const override;

  /// Fetch one block from `store` and make it resident (replaces any
  /// previous payload for the same id).
  void load(const BlockStore& store, BlockId id, usize var = 0,
            usize timestep = 0);
  /// Make every block of the volume resident.
  void load_all(const BlockStore& store, usize var = 0, usize timestep = 0);
  /// Drop a block's payload (no-op when not resident).
  void evict(BlockId id);

  bool resident(BlockId id) const;
  usize resident_count() const { return resident_count_; }

 private:
  BlockGrid grid_;
  std::vector<std::vector<float>> payloads_;  ///< indexed by BlockId
  std::vector<BrickView> views_;              ///< indexed by BlockId
  usize resident_count_ = 0;
};

/// Per-point VolumeSampler over `bricks` — the scalar reference path's
/// view of the same residency set the packet path renders. Pays block
/// lookup + virtual dispatch + std::function indirection per sample, in
/// double precision. `bricks` must outlive the returned function.
std::function<std::optional<float>(const Vec3&)> make_reference_sampler(
    const BrickSampler& bricks);

}  // namespace vizcache
