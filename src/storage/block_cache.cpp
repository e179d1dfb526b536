#include "storage/block_cache.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vizcache {

BlockCache::BlockCache(u64 capacity_bytes,
                       std::unique_ptr<ReplacementPolicy> policy,
                       SizeFn size_fn)
    : capacity_bytes_(capacity_bytes),
      policy_(std::move(policy)),
      size_fn_(std::move(size_fn)) {
  VIZ_REQUIRE(capacity_bytes_ > 0, "cache capacity must be positive");
  VIZ_REQUIRE(policy_ != nullptr, "cache needs a replacement policy");
  VIZ_REQUIRE(size_fn_ != nullptr, "cache needs a block size function");
}

CacheStats& CacheStats::operator+=(const CacheStats& other) {
  hits += other.hits;
  misses += other.misses;
  insertions += other.insertions;
  evictions += other.evictions;
  bypasses += other.bypasses;
  return *this;
}

void report_metrics(const CacheStats& stats, const std::string& prefix,
                    MetricsSnapshot& out) {
  out.add_counter(prefix + ".hits", stats.hits);
  out.add_counter(prefix + ".misses", stats.misses);
  out.add_counter(prefix + ".insertions", stats.insertions);
  out.add_counter(prefix + ".evictions", stats.evictions);
  out.add_counter(prefix + ".bypasses", stats.bypasses);
}

void BlockCache::touch_at(LastUseMap::iterator it, u64 step) {
  it->second = step;
  policy_->on_access(it->first);
}

void BlockCache::touch(BlockId id, u64 step) {
  auto it = last_use_.find(id);
  VIZ_REQUIRE(it != last_use_.end(), "touch on non-resident block");
  touch_at(it, step);
}

bool BlockCache::touch_if_resident(BlockId id, u64 step) {
  auto it = last_use_.find(id);
  if (it == last_use_.end()) return false;
  touch_at(it, step);
  return true;
}

BlockCache::InsertResult BlockCache::insert(BlockId id, u64 step) {
  return insert(id, step, step);
}

BlockCache::InsertResult BlockCache::insert(BlockId id, u64 step,
                                            u64 protect_floor) {
  VIZ_REQUIRE(protect_floor <= step,
              "protect_floor must not exceed the access step");
  InsertResult result;
  if (auto it = last_use_.find(id); it != last_use_.end()) {
    touch_at(it, step);
    return result;
  }
  const u64 bytes = size_fn_(id);
  if (bytes > capacity_bytes_) {
    ++stats_.bypasses;
    result.bypassed = true;
    return result;
  }
  // Per-step protection (Algorithm 1 line 16): only blocks whose last use
  // precedes the protection floor may be replaced (floor == step for the
  // single-consumer pipelines). Victims are selected first and evicted only
  // once the insert is guaranteed to succeed, so a bypassed insert leaves
  // the cache untouched (atomicity).
  // Selection order kept for determinism. The scratch is a member so its
  // capacity survives across inserts: after warm-up, victim selection runs
  // allocation-free however many victims a large insert displaces.
  std::vector<BlockId>& chosen = victim_scratch_;
  chosen.clear();
  EvictablePredicate evictable = [this, protect_floor, &chosen](BlockId candidate) {
    if (std::find(chosen.begin(), chosen.end(), candidate) != chosen.end()) {
      return false;
    }
    auto it = last_use_.find(candidate);
    return it != last_use_.end() && it->second < protect_floor;
  };
  u64 freed = 0;
  while (occupancy_bytes_ - freed + bytes > capacity_bytes_) {
    BlockId victim = policy_->choose_victim(evictable);
    if (victim == kInvalidBlock) {
      ++stats_.bypasses;
      result.bypassed = true;
      return result;
    }
    VIZ_CHECK(last_use_.count(victim), "policy chose a non-resident victim");
    // analyze: allow(hot-path-alloc): appends into the hoisted member
    // scratch, whose capacity persists across inserts — steady state is
    // allocation-free.
    chosen.push_back(victim);
    freed += size_fn_(victim);
  }
  result.evicted.reserve(chosen.size());
  for (BlockId victim : chosen) {
    occupancy_bytes_ -= size_fn_(victim);
    last_use_.erase(victim);
    policy_->on_evict(victim);
    ++stats_.evictions;
    // analyze: allow(hot-path-alloc): appends within the capacity reserved
    // right-sized above; one batch per capacity miss, dwarfed by the block
    // read that triggered it.
    result.evicted.push_back(victim);
  }
  // analyze: allow(hot-path-alloc): one hash node per newly resident block,
  // bounded by the cache capacity — residency metadata is the product.
  last_use_.try_emplace(id, step);  // single hash: the find above proved absence
  occupancy_bytes_ += bytes;
  policy_->on_insert(id);
  ++stats_.insertions;
  result.inserted = true;
  return result;
}

bool BlockCache::erase(BlockId id) {
  auto it = last_use_.find(id);
  if (it == last_use_.end()) return false;
  occupancy_bytes_ -= size_fn_(id);
  last_use_.erase(it);
  policy_->on_evict(id);
  ++stats_.evictions;
  return true;
}

u64 BlockCache::last_use(BlockId id) const {
  auto it = last_use_.find(id);
  VIZ_REQUIRE(it != last_use_.end(), "last_use of non-resident block");
  return it->second;
}

std::vector<BlockId> BlockCache::resident_blocks() const {
  std::vector<BlockId> out;
  out.reserve(last_use_.size());
  for (const auto& [id, _] : last_use_) out.push_back(id);
  return out;
}

void BlockCache::clear() {
  for (const auto& [id, _] : last_use_) policy_->on_evict(id);
  last_use_.clear();
  occupancy_bytes_ = 0;
}

}  // namespace vizcache
