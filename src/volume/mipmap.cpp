#include "volume/mipmap.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vizcache {

Field3D downsample_field(const Field3D& src) {
  const Dims3& d = src.dims();
  Dims3 out_dims{std::max<usize>(1, (d.x + 1) / 2),
                 std::max<usize>(1, (d.y + 1) / 2),
                 std::max<usize>(1, (d.z + 1) / 2)};
  Field3D out(out_dims);
  for (usize z = 0; z < out_dims.z; ++z) {
    for (usize y = 0; y < out_dims.y; ++y) {
      for (usize x = 0; x < out_dims.x; ++x) {
        double sum = 0.0;
        usize count = 0;
        for (usize dz = 0; dz < 2; ++dz) {
          usize sz = z * 2 + dz;
          if (sz >= d.z) continue;
          for (usize dy = 0; dy < 2; ++dy) {
            usize sy = y * 2 + dy;
            if (sy >= d.y) continue;
            for (usize dx = 0; dx < 2; ++dx) {
              usize sx = x * 2 + dx;
              if (sx >= d.x) continue;
              sum += static_cast<double>(src.at(sx, sy, sz));
              ++count;
            }
          }
        }
        out.at(x, y, z) = static_cast<float>(sum / static_cast<double>(count));
      }
    }
  }
  return out;
}

MipPyramid MipPyramid::build(Field3D level0, Dims3 block_dims, usize levels) {
  VIZ_REQUIRE(levels >= 1, "pyramid needs at least one level");
  MipPyramid p;
  p.fields_.push_back(std::move(level0));
  while (p.fields_.size() < levels) {
    const Dims3& d = p.fields_.back().dims();
    if (d.x == 1 && d.y == 1 && d.z == 1) break;
    p.fields_.push_back(downsample_field(p.fields_.back()));
  }
  BlockId offset = 0;
  for (const Field3D& f : p.fields_) {
    // Clip block dims to the level extents (coarse levels may be smaller
    // than one nominal block).
    Dims3 bd{std::min(block_dims.x, f.dims().x),
             std::min(block_dims.y, f.dims().y),
             std::min(block_dims.z, f.dims().z)};
    p.grids_.emplace_back(f.dims(), bd);
    p.offsets_.push_back(offset);
    offset += static_cast<BlockId>(p.grids_.back().block_count());
  }
  p.offsets_.push_back(offset);  // sentinel: total key count
  return p;
}

const Field3D& MipPyramid::field(usize level) const {
  VIZ_REQUIRE(level < fields_.size(), "level out of range");
  return fields_[level];
}

const BlockGrid& MipPyramid::grid(usize level) const {
  VIZ_REQUIRE(level < grids_.size(), "level out of range");
  return grids_[level];
}

u64 MipPyramid::level_bytes(usize level) const {
  return field(level).voxels() * 4;
}

u64 MipPyramid::total_bytes() const {
  u64 total = 0;
  for (usize l = 0; l < level_count(); ++l) total += level_bytes(l);
  return total;
}

BlockId MipPyramid::pack_key(usize level, BlockId id) const {
  VIZ_REQUIRE(id < grid(level).block_count(), "block id out of range");
  return offsets_[level] + id;
}

usize MipPyramid::level_of_key(BlockId key) const {
  VIZ_REQUIRE(key < offsets_.back(), "key out of range");
  usize level = 0;
  while (key >= offsets_[level + 1]) ++level;
  return level;
}

usize MipPyramid::total_keys() const { return offsets_.back(); }

u64 MipPyramid::key_bytes(BlockId key) const {
  usize level = level_of_key(key);
  return grid(level).block_bytes(key - offsets_[level]);
}

}  // namespace vizcache
