#pragma once

#include <vector>

#include "volume/block_grid.hpp"
#include "volume/field.hpp"

namespace vizcache {

/// Downsample a field by 2x per axis with box (average) filtering. Odd
/// extents round up; boundary cells average the available voxels.
Field3D downsample_field(const Field3D& src);

/// Multi-resolution pyramid of one scalar volume: level 0 is full
/// resolution, each further level halves every axis. This is the
/// "multi-resolution representation" of the view-dependent out-of-core
/// algorithms the paper contrasts against (Sections II / III-B): far-away
/// regions can be rendered from coarse levels at a fraction of the I/O, at
/// the cost of full-resolution fidelity.
class MipPyramid {
 public:
  /// Build from a full-resolution field. `levels` >= 1 (level 0 only);
  /// levels stop early when an axis reaches 1 voxel. All levels are blocked
  /// with the same `block_dims` (coarser levels therefore have fewer
  /// blocks).
  static MipPyramid build(Field3D level0, Dims3 block_dims, usize levels);

  usize level_count() const { return fields_.size(); }

  const Field3D& field(usize level) const;
  const BlockGrid& grid(usize level) const;

  /// Bytes of one level's full payload.
  u64 level_bytes(usize level) const;
  /// Bytes across all levels (the classic ~1.14x overhead for 2x pyramids).
  u64 total_bytes() const;

  /// Dense cross-level key for hierarchy caching: the keys of level l are a
  /// contiguous range of grid(l).block_count() keys, after those of level
  /// l - 1.
  BlockId pack_key(usize level, BlockId id) const;
  usize level_of_key(BlockId key) const;
  /// Total key space across levels.
  usize total_keys() const;
  /// Payload bytes of a packed key.
  u64 key_bytes(BlockId key) const;

 private:
  std::vector<Field3D> fields_;
  std::vector<BlockGrid> grids_;  ///< one per level, beside its field
  std::vector<BlockId> offsets_;
};

}  // namespace vizcache
