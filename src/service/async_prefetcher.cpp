#include "service/async_prefetcher.hpp"

namespace vizcache {

AsyncPrefetcher::AsyncPrefetcher(const BlockStore& store, usize threads)
    : store_(store), pool_(threads) {}

AsyncPrefetcher::~AsyncPrefetcher() { pool_.wait_idle(); }

void AsyncPrefetcher::request(std::span<const BlockId> blocks, usize var,
                              usize timestep) {
  std::vector<BlockId> candidates;
  {
    MutexLock lock(mutex_);
    for (BlockId id : blocks) {
      if (cache_.count(id)) continue;
      candidates.push_back(id);
    }
  }
  // Claim and submit outside the critical section: try_claim takes the
  // coalescer's lock and submit() the pool's, and mutex_ must stay a leaf.
  // A candidate whose claim fails is already being read (by another
  // request() or a demand read) — the duplicate is suppressed.
  for (BlockId id : candidates) {
    if (!coalescer_.try_claim(id)) continue;
    // The cached check above is a snapshot: a read of this block may have
    // completed between it and the claim (store_payload publishes to the
    // cache BEFORE releasing the claim, so a successful claim means any
    // finished read is already visible here). Re-probe, or duplicate ids in
    // one batch would each re-read the block once the previous read lands.
    bool already_cached = false;
    {
      MutexLock lock(mutex_);
      already_cached = cache_.count(id) != 0;
    }
    if (already_cached) {
      coalescer_.complete(id);  // we own this claim; nothing was read
      continue;
    }
    pool_.submit([this, id, var, timestep] {
      // A failed background load must not wedge the block in the in-flight
      // table: record the failure and let a later demand read retry (and
      // surface the error synchronously if it persists).
      try {
        std::vector<float> payload = store_.read_block(id, var, timestep);
        store_payload(id, std::move(payload), /*prefetch=*/true);
      } catch (const std::exception&) {
        note_failure(id);
      }
    });
  }
}

AsyncPrefetcher::Payload AsyncPrefetcher::get_if_ready(BlockId id) const {
  MutexLock lock(mutex_);
  auto it = cache_.find(id);
  return it == cache_.end() ? nullptr : it->second;
}

AsyncPrefetcher::Payload AsyncPrefetcher::get_blocking(BlockId id, usize var,
                                                       usize timestep) {
  {
    MutexLock lock(mutex_);
    auto it = cache_.find(id);
    if (it != cache_.end()) {
      ++stats_.demand_hits;
      return it->second;
    }
    ++stats_.demand_misses;
  }
  // Claim the block for the duration of the synchronous read so a concurrent
  // request() cannot launch a duplicate background read. The claim is owned:
  // if a background load already holds it, leave it alone — store_payload /
  // note_failure release it, not us, so a racing prefetch's bookkeeping
  // can't be clobbered from this path. Either way the demand read proceeds
  // (see the class comment: render threads never wait on loader threads).
  const bool claimed_here = coalescer_.try_claim(id);
  // Synchronous demand load, outside every lock (reads can take
  // milliseconds).
  Payload payload;
  try {
    // analyze: allow(hot-path-alloc): the payload allocation IS the demand
    // read's product, and the millisecond-scale device read it wraps
    // dominates it by orders of magnitude.
    payload = std::make_shared<const std::vector<float>>(
        store_.read_block(id, var, timestep));
  } catch (...) {
    // Release our claim on failure, else the block is wedged un-loadable.
    if (claimed_here) coalescer_.complete(id);
    // analyze: allow(hot-path-throw): rethrow after releasing the claim —
    // a store failure must keep propagating to the caller.
    throw;
  }
  Payload resident;
  {
    MutexLock lock(mutex_);
    // A racing prefetch of the same block may have landed first; keep the
    // incumbent. Never re-look-up after unlocking: a concurrent evict_except
    // could empty the cache between insert and return (a race the stress
    // suite caught as an unordered_map::at throw).
    // analyze: allow(hot-path-alloc): one map node per newly resident
    // block, bounded by evict_except — residency bookkeeping on the miss
    // path, not per-access work.
    auto [it, inserted] = cache_.emplace(id, std::move(payload));
    resident = it->second;
  }
  // Release only after the payload is visible in the cache, so anyone whose
  // claim was suppressed by ours finds the block on their next probe.
  if (claimed_here) coalescer_.complete(id);
  return resident;
}

void AsyncPrefetcher::drain() { pool_.wait_idle(); }

void AsyncPrefetcher::evict_except(const std::unordered_set<BlockId>& keep) {
  MutexLock lock(mutex_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (keep.contains(it->first)) {
      ++it;
    } else {
      it = cache_.erase(it);
    }
  }
}

usize AsyncPrefetcher::cached_blocks() const {
  MutexLock lock(mutex_);
  return cache_.size();
}

AsyncPrefetcher::Stats AsyncPrefetcher::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void AsyncPrefetcher::note_failure(BlockId id) {
  {
    MutexLock lock(mutex_);
    ++stats_.failures;
  }
  coalescer_.complete(id);
}

void AsyncPrefetcher::store_payload(BlockId id, std::vector<float> payload,
                                    bool prefetch) {
  {
    MutexLock lock(mutex_);
    if (!cache_.count(id)) {
      cache_[id] =
          std::make_shared<const std::vector<float>>(std::move(payload));
    }
    if (prefetch) ++stats_.prefetched;
  }
  coalescer_.complete(id);
}

}  // namespace vizcache
