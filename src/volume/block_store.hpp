#pragma once

#include <memory>
#include <vector>

#include "volume/block_grid.hpp"
#include "volume/generators.hpp"

namespace vizcache {

/// Source of block payloads. This is the "slowest level" backing store the
/// memory-hierarchy simulator fetches from; implementations may hold data in
/// memory, generate it analytically on demand, or read bricks from disk.
class BlockStore {
 public:
  virtual ~BlockStore() = default;

  virtual const BlockGrid& grid() const = 0;
  virtual const VolumeDesc& desc() const = 0;

  /// Payload of a block for (var, timestep); length == grid().block_voxels(id).
  virtual std::vector<float> read_block(BlockId id, usize var = 0,
                                        usize timestep = 0) const = 0;

  /// Bytes of a block payload.
  u64 block_bytes(BlockId id) const { return grid().block_bytes(id); }
};

/// Block store that evaluates a SyntheticVolume's voxel function lazily —
/// supports the paper's full-resolution datasets (e.g. 1024^3 3d_ball)
/// without materializing them. Reads are deterministic.
class SyntheticBlockStore final : public BlockStore {
 public:
  SyntheticBlockStore(SyntheticVolume volume, Dims3 block_dims);

  const BlockGrid& grid() const override { return grid_; }
  const VolumeDesc& desc() const override { return volume_.desc; }
  std::vector<float> read_block(BlockId id, usize var,
                                usize timestep) const override;

 private:
  SyntheticVolume volume_;
  BlockGrid grid_;
};

}  // namespace vizcache
