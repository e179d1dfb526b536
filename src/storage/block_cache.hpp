#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/policy.hpp"
#include "util/metrics.hpp"
#include "util/types.hpp"

namespace vizcache {

/// Counters of one cache level.
struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;        ///< demand lookups that were not resident
  u64 insertions = 0;
  u64 evictions = 0;
  u64 bypasses = 0;      ///< inserts refused because every victim was protected

  u64 lookups() const { return hits + misses; }
  double miss_rate() const {
    return lookups() ? static_cast<double>(misses) / static_cast<double>(lookups())
                     : 0.0;
  }

  CacheStats& operator+=(const CacheStats& other);
  bool operator==(const CacheStats&) const = default;
};

/// Writes `stats` into `out` as the counters
/// `<prefix>.{hits,misses,insertions,evictions,bypasses}` (e.g. prefix
/// "cache.dram").
void report_metrics(const CacheStats& stats, const std::string& prefix,
                    MetricsSnapshot& out);

/// One cache level: a byte-capacity container of block payloads, keyed by
/// BlockId, with a pluggable replacement policy and the paper's per-step
/// protection rule (Algorithm 1: a victim's last-use step must be strictly
/// below the current step).
///
/// Thread-safety: thread-compatible, not thread-safe — the hierarchy
/// simulator mutates caches from one thread at a time (ParallelPipeline
/// gives each simulated worker its own hierarchy slice precisely so no
/// cross-thread sharing exists). Wrap in an externally annotated Mutex
/// (util/annotated_mutex.hpp) before sharing across real threads.
class BlockCache {
 public:
  using SizeFn = std::function<u64(BlockId)>;

  /// `capacity_bytes` > 0; `size_fn` gives each block's payload size.
  BlockCache(u64 capacity_bytes, std::unique_ptr<ReplacementPolicy> policy,
             SizeFn size_fn);

  bool contains(BlockId id) const { return last_use_.count(id) > 0; }

  /// Record a demand access to a resident block at path step `step`:
  /// refreshes the protection timestamp and informs the policy. The caller
  /// must have checked contains().
  void touch(BlockId id, u64 step);

  /// contains() + touch() fused into one hash lookup: refreshes `id` when
  /// resident and reports whether it was. The residency probe of the
  /// hierarchy's fetch path uses this so a hit costs one lookup, not two.
  bool touch_if_resident(BlockId id, u64 step);

  /// Outcome of an insert attempt.
  struct InsertResult {
    bool inserted = false;
    bool bypassed = false;               ///< no evictable victim existed
    std::vector<BlockId> evicted;        ///< victims removed to make room
  };

  /// Make `id` resident at step `step`, evicting protected-aware victims as
  /// needed. Inserting a resident block degenerates to touch(). A block
  /// larger than the whole cache, or an insert with every victim protected,
  /// is bypassed (the read still happened; the block just isn't kept).
  InsertResult insert(BlockId id, u64 step);

  /// insert() with the protection threshold decoupled from the access
  /// timestamp: the inserted block's last_use becomes `step`, but a victim is
  /// evictable only when its last_use < `protect_floor` (<= step). The
  /// single-consumer pipelines use floor == step (Algorithm 1's rule); the
  /// shared multi-session hierarchy passes the minimum epoch of all
  /// in-progress session steps, so no session's eviction scan can victimize a
  /// block another session used during a step that has not finished yet.
  InsertResult insert(BlockId id, u64 step, u64 protect_floor);

  /// Remove a specific block (used by invalidation tests).
  bool erase(BlockId id);

  /// Last-use step of a resident block (the paper's time[] array).
  u64 last_use(BlockId id) const;

  u64 capacity_bytes() const { return capacity_bytes_; }
  u64 occupancy_bytes() const { return occupancy_bytes_; }
  usize resident_count() const { return last_use_.size(); }
  std::vector<BlockId> resident_blocks() const;

  const CacheStats& stats() const { return stats_; }
  void note_miss() { ++stats_.misses; }
  void note_hit() { ++stats_.hits; }
  void reset_stats() { stats_ = {}; }

  ReplacementPolicy& policy() { return *policy_; }

  /// Drop everything (stats preserved).
  void clear();

 private:
  using LastUseMap = std::unordered_map<BlockId, u64>;

  /// Shared tail of touch()/insert()-on-resident: refresh the timestamp via
  /// an iterator already in hand, so the map is hashed exactly once per
  /// lookup instead of once for contains() and again for the update.
  void touch_at(LastUseMap::iterator it, u64 step);

  u64 capacity_bytes_;
  std::unique_ptr<ReplacementPolicy> policy_;
  SizeFn size_fn_;
  LastUseMap last_use_;
  u64 occupancy_bytes_ = 0;
  CacheStats stats_;
  /// Victim-selection scratch reused across insert() calls: cleared, never
  /// shrunk, so the steady state selects victims without touching the
  /// allocator (the cache is thread-compatible, see class comment, so one
  /// scratch suffices).
  std::vector<BlockId> victim_scratch_;
};

}  // namespace vizcache
