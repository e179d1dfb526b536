#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "util/annotated_mutex.hpp"
#include "volume/block_store.hpp"

namespace vizcache {

/// Block store backed by a single packed file: a fixed header, an offset
/// index, then all brick payloads back to back. Closer to production
/// storage than one-file-per-brick (constant open cost, sequential layout,
/// one seek per brick read) — the layout Pascucci & Frank-style global
/// indexing assumes (paper Section II).
///
/// File layout (little-endian):
///   magic "VZPK" | u64 dims[3] | u64 variables | u64 timesteps |
///   u64 block_dims[3] | u64 entry_count | u64 offsets[entry_count+1] |
///   payload bytes...
/// Entry order: (timestep, variable, block) row-major.
class PackedFileBlockStore final : public BlockStore {
 public:
  /// Open an existing packed store. Throws IoError unless the offset index
  /// starts at 0 and gives every entry exactly its block's byte size.
  explicit PackedFileBlockStore(const std::string& path);

  /// Write `volume` into a packed file at `path`; returns the opened store.
  static PackedFileBlockStore write_store(const std::string& path,
                                          const SyntheticVolume& volume,
                                          Dims3 block_dims);

  const BlockGrid& grid() const override { return grid_; }
  const VolumeDesc& desc() const override { return desc_; }
  std::vector<float> read_block(BlockId id, usize var,
                                usize timestep) const override;

  const std::string& path() const { return path_; }
  u64 file_bytes() const;

 private:
  /// Everything the header + offset index determine, parsed with a local
  /// stream so the members it feeds can be const.
  struct ParsedHeader {
    VolumeDesc desc;
    BlockGrid grid;
    std::vector<u64> offsets;
    u64 payload_start = 0;
  };
  static ParsedHeader parse_header(const std::string& path);

  PackedFileBlockStore(const std::string& path, ParsedHeader header);

  usize entry_index(BlockId id, usize var, usize timestep) const;

  // All metadata is immutable once the file is parsed; only the stream
  // position mutates, and that under io_mutex_.
  const std::string path_;
  const VolumeDesc desc_;
  const BlockGrid grid_;
  const std::vector<u64> offsets_;
  const u64 payload_start_;  ///< file offset of the first payload byte
  mutable Mutex io_mutex_;  ///< one seek+read at a time (leaf lock)
  mutable std::ifstream file_ GUARDED_BY(io_mutex_);
};

}  // namespace vizcache
