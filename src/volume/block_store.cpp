#include "volume/block_store.hpp"

#include "util/error.hpp"

namespace vizcache {

SyntheticBlockStore::SyntheticBlockStore(SyntheticVolume volume,
                                         Dims3 block_dims)
    : volume_(std::move(volume)), grid_(volume_.desc.dims, block_dims) {}

std::vector<float> SyntheticBlockStore::read_block(BlockId id, usize var,
                                                   usize timestep) const {
  VIZ_REQUIRE(id < grid_.block_count(), "block id out of range");
  VIZ_REQUIRE(var < volume_.desc.variables, "variable out of range");
  VIZ_REQUIRE(timestep < volume_.desc.timesteps, "timestep out of range");
  Dims3 o = grid_.block_voxel_origin(id);
  Dims3 e = grid_.block_voxel_extent(id);
  const Dims3& vd = grid_.volume_dims();
  auto norm = [](usize i, usize total) {
    return total == 1 ? 0.0
                      : -1.0 + 2.0 * static_cast<double>(i) /
                                   static_cast<double>(total - 1);
  };
  std::vector<float> out;
  out.reserve(e.voxels());
  for (usize z = 0; z < e.z; ++z) {
    double nz = norm(o.z + z, vd.z);
    for (usize y = 0; y < e.y; ++y) {
      double ny = norm(o.y + y, vd.y);
      for (usize x = 0; x < e.x; ++x) {
        // analyze: allow(hot-path-alloc): constructs the returned payload
        // within the capacity reserved right-sized above — the synthetic
        // store's stand-in for a device read.
        out.push_back(volume_.fn({norm(o.x + x, vd.x), ny, nz}, var, timestep));
      }
    }
  }
  return out;
}

}  // namespace vizcache
