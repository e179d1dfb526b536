#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/block_cache.hpp"
#include "storage/device.hpp"
#include "storage/policy.hpp"
#include "util/metrics.hpp"

namespace vizcache {

/// Specification of one caching level of the hierarchy (fastest first).
struct LevelSpec {
  std::string name;          ///< e.g. "DRAM", "SSD"
  DeviceModel device;        ///< timing of reads served by this level
  u64 capacity_bytes = 0;    ///< cache capacity at this level
  PolicyKind policy = PolicyKind::kLru;
};

/// Aggregate timing/counter results of a hierarchy run.
struct HierarchyStats {
  std::vector<std::string> level_names;  ///< LevelSpec::name of each level
  std::vector<CacheStats> level;         ///< per caching level
  u64 demand_backing_reads = 0;       ///< backing reads caused by demand fetches
  u64 demand_backing_bytes = 0;
  u64 prefetch_backing_reads = 0;     ///< backing reads caused by prefetches
  u64 prefetch_backing_bytes = 0;
  SimSeconds demand_io_time = 0.0;    ///< simulated time of demand fetches
  SimSeconds prefetch_time = 0.0;     ///< simulated time of prefetch fetches
  u64 demand_requests = 0;
  u64 prefetch_requests = 0;

  /// All reads served by the backing device, regardless of cause.
  u64 backing_reads() const {
    return demand_backing_reads + prefetch_backing_reads;
  }
  u64 backing_bytes() const {
    return demand_backing_bytes + prefetch_backing_bytes;
  }

  /// Fastest-level (DRAM) miss fraction over demand requests.
  double fast_miss_rate() const;
  /// Paper's "total miss rate across DRAM, SSD and HDD": misses summed over
  /// all cache levels divided by lookups summed over all cache levels
  /// (a request only reaches level k+1 after missing level k).
  double total_miss_rate() const;

  /// Adds `other` counter by counter and level by level; both must have the
  /// same levels (e.g. the hierarchies of ParallelPipeline's workers).
  HierarchyStats& operator+=(const HierarchyStats& other);
  bool operator==(const HierarchyStats&) const = default;
};

/// Writes `stats` into `out`: the counters
/// `<prefix>.{demand,prefetch}.{requests,backing_reads,backing_bytes}`, the
/// gauges `<prefix>.{demand,prefetch}.io_seconds`, and each level's
/// CacheStats under `cache.<lowercased level name>` (e.g. `cache.dram.hits`).
void report_metrics(const HierarchyStats& stats, const std::string& prefix,
                    MetricsSnapshot& out);

/// Multi-level memory-hierarchy simulator (paper Section V-A: DRAM cache
/// over SSD cache over HDD backing store, cache ratio 0.5 per level).
///
/// Semantics:
/// - Data is read-only; every block permanently lives on the backing device.
/// - fetch(): demand read of a block at a path step. Served by the fastest
///   level holding it; the block is then promoted into every faster level
///   (staged HDD -> SSD -> DRAM). Simulated cost is the serving device's
///   transfer time.
/// - prefetch(): same movement, but accounted to prefetch_time so the
///   pipeline can overlap it with rendering.
/// - preload(): initial placement (Step 2 pre-processing) — no time charged.
class MemoryHierarchy {
 public:
  using SizeFn = std::function<u64(BlockId)>;

  MemoryHierarchy(std::vector<LevelSpec> levels, DeviceModel backing,
                  SizeFn block_size);

  /// Convenience: the paper's testbed — DRAM and SSD caches sized as
  /// `ratio` and `ratio`^2... i.e. SSD holds `ratio` * dataset bytes and
  /// DRAM holds `ratio` * SSD bytes, over an HDD backing store.
  static MemoryHierarchy paper_testbed(u64 dataset_bytes, double cache_ratio,
                                       PolicyKind policy, SizeFn block_size);

  usize level_count() const { return levels_.size(); }
  const std::string& level_name(usize level) const;
  BlockCache& cache(usize level);
  const BlockCache& cache(usize level) const;

  /// Demand fetch; returns simulated time.
  SimSeconds fetch(BlockId id, u64 step) { return fetch(id, step, step); }

  /// fetch() with a decoupled eviction-protection floor (see
  /// BlockCache::insert(id, step, protect_floor)): promotion inserts touch
  /// the block at `step` but may only evict victims last used before
  /// `protect_floor`. The shared multi-session hierarchy passes the minimum
  /// epoch of all in-progress session steps.
  SimSeconds fetch(BlockId id, u64 step, u64 protect_floor);

  /// Prefetch into the fastest level; returns simulated time (0 when the
  /// block is already fastest-resident).
  SimSeconds prefetch(BlockId id, u64 step) { return prefetch(id, step, step); }

  /// prefetch() with a decoupled eviction-protection floor (see fetch()).
  SimSeconds prefetch(BlockId id, u64 step, u64 protect_floor);

  /// Pre-processing placement into the fastest level (and the levels below
  /// it) without charging simulated time or demand/prefetch counters.
  void preload(BlockId id);

  bool resident_fast(BlockId id) const { return levels_.front().cache->contains(id); }

  /// The hierarchy's counters, with each level's read from its cache.
  HierarchyStats stats() const;

  /// Drop all cached blocks and stats (fresh run).
  void reset();

 private:
  struct Level {
    std::string name;
    DeviceModel device;
    std::unique_ptr<BlockCache> cache;
  };

  /// Core movement shared by fetch/prefetch: returns the serving time and
  /// promotes the block into levels [0, found_level).
  SimSeconds fetch_internal(BlockId id, u64 step, bool demand,
                            u64 protect_floor);

  std::vector<Level> levels_;
  DeviceModel backing_;
  SizeFn block_size_;
  /// The hierarchy's own counters; the levels' live in their caches, so
  /// level_names and level stay empty here.
  HierarchyStats stats_;
};

}  // namespace vizcache
