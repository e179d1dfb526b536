#pragma once

#include <vector>

#include "geom/aabb.hpp"
#include "volume/volume_desc.hpp"

namespace vizcache {

/// Integer block coordinates within the grid.
struct BlockCoord {
  usize bx = 0;
  usize by = 0;
  usize bz = 0;
  constexpr bool operator==(const BlockCoord&) const = default;
};

/// Uniform partition of a volume into blocks (bricks). Implements the
/// paper's "volume data divided into a set of uniform-size blocks": block
/// ids are dense in [0, block_count()), edge blocks may be partial.
///
/// Geometry: the volume is mapped to the normalized frame [-1, 1]^3 per axis
/// (the paper's normalized edge size 2), so block AABBs are directly usable
/// with the view-cone visibility test.
class BlockGrid {
 public:
  BlockGrid() = default;
  /// `block_dims` is the voxel size of one (interior) block.
  BlockGrid(Dims3 volume_dims, Dims3 block_dims);

  /// Grid with a target total block count: picks near-cubical block dims so
  /// that block_count() is close to `target_blocks` (used by Fig. 9/12
  /// "divided into N blocks" experiments).
  static BlockGrid with_target_block_count(Dims3 volume_dims,
                                           usize target_blocks);

  const Dims3& volume_dims() const { return volume_dims_; }
  const Dims3& block_dims() const { return block_dims_; }
  /// Number of blocks along each axis.
  const Dims3& grid_dims() const { return grid_dims_; }

  usize block_count() const { return grid_dims_.voxels(); }

  BlockCoord coord_of(BlockId id) const;
  BlockId id_of(const BlockCoord& c) const;

  /// Voxel extents of a block (edge blocks clipped to the volume).
  Dims3 block_voxel_origin(BlockId id) const;
  Dims3 block_voxel_extent(BlockId id) const;

  /// Voxel count of a block (edge blocks may be smaller).
  usize block_voxels(BlockId id) const;

  /// Bytes of one block payload for a float32 scalar field.
  u64 block_bytes(BlockId id) const { return block_voxels(id) * 4; }
  /// Bytes of a full interior block.
  u64 nominal_block_bytes() const { return block_dims_.voxels() * 4; }
  /// Bytes of all blocks together: they tile the volume exactly.
  u64 total_bytes() const { return volume_dims_.voxels() * 4; }

  /// Block bounds in the normalized [-1, 1]^3 frame.
  AABB block_bounds(BlockId id) const;

  /// Block id containing a normalized-frame point, or kInvalidBlock when the
  /// point lies outside the volume.
  BlockId block_at_normalized(const Vec3& p) const;

  /// All block ids (0..count), convenience for whole-volume sweeps.
  std::vector<BlockId> all_blocks() const;

 private:
  Dims3 volume_dims_;
  Dims3 block_dims_;
  Dims3 grid_dims_;
};

}  // namespace vizcache
