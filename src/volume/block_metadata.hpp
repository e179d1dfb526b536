#pragma once

#include <string>
#include <vector>

#include "volume/block_store.hpp"

namespace vizcache {

/// Per-block, per-variable summary statistics (min/max/mean). This is the
/// classic min-max block-culling index used by query-based visualization:
/// an iso-surface at value v, or a range query [lo, hi], can only pass
/// through blocks whose value interval intersects it, so all other blocks
/// can be skipped without reading them (paper Section III-A's
/// data-dependent operations, Fig. 1 d/e).
class BlockMetadataTable {
 public:
  struct Entry {
    float min = 0.0f;
    float max = 0.0f;
    float mean = 0.0f;
  };

  /// Scan every block of every requested variable once at `timestep`.
  /// `variables` == 0 means all variables of the store.
  static BlockMetadataTable build(const BlockStore& store, usize variables = 0,
                                  usize timestep = 0);

  usize block_count() const { return blocks_; }
  usize variable_count() const { return variables_; }

  const Entry& entry(BlockId id, usize var = 0) const;

  /// Does the block's value interval for `var` intersect [lo, hi]?
  bool intersects_range(BlockId id, usize var, float lo, float hi) const;

  /// Binary serialization (pre-processing artifact, like the two tables).
  void save(const std::string& path) const;
  static BlockMetadataTable load(const std::string& path);

 private:
  usize blocks_ = 0;
  usize variables_ = 0;
  std::vector<Entry> entries_;  ///< var-major: entries_[var * blocks_ + id]
};

}  // namespace vizcache
