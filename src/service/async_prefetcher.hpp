#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/request_coalescer.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_pool.hpp"
#include "volume/block_store.hpp"

namespace vizcache {

/// Real-thread prefetch engine used by the example applications: overlaps
/// block loading (from any BlockStore, e.g. disk bricks) with rendering on
/// the main thread — the live counterpart of the simulated overlap model in
/// VizPipeline. Payloads are cached in memory until evicted.
///
/// Thread-safety: every public method may be called from any thread. mutex_
/// is a leaf lock: it is never held across a BlockStore read, across a
/// ThreadPool call (submit/wait_idle take the pool's own lock — holding both
/// would create a lock-order edge; see DESIGN.md, "Locking discipline"), or
/// across a RequestCoalescer call (the coalescer's mutex is its own leaf).
/// BlockStore::read_block must itself be const-thread-safe, which all
/// in-repo stores are.
///
/// Read deduplication lives in the shared RequestCoalescer (one claim per
/// block in flight, owned by whoever claimed it). Demand reads deliberately
/// do NOT wait on a racing background read — an example app's render thread
/// must not block on a loader-pool read of unknowable age — so a demand read
/// racing a prefetch of the same block performs its own read and keeps the
/// incumbent payload (the multi-session service makes the opposite choice;
/// see SharedHierarchy::fetch).
class AsyncPrefetcher {
 public:
  using Payload = std::shared_ptr<const std::vector<float>>;

  /// `threads`: number of background loader threads.
  AsyncPrefetcher(const BlockStore& store, usize threads = 2);
  ~AsyncPrefetcher();

  /// Queue background loads for blocks not yet cached or in flight.
  void request(std::span<const BlockId> blocks, usize var = 0,
               usize timestep = 0) EXCLUDES(mutex_);

  /// Payload if already cached, nullptr otherwise (never blocks).
  Payload get_if_ready(BlockId id) const EXCLUDES(mutex_);

  /// Payload, loading synchronously on miss (counts a demand miss).
  Payload get_blocking(BlockId id, usize var = 0, usize timestep = 0)
      EXCLUDES(mutex_);

  /// Wait for all queued prefetches to land.
  void drain();

  /// Drop all cached payloads except `keep`.
  void evict_except(const std::unordered_set<BlockId>& keep) EXCLUDES(mutex_);

  usize cached_blocks() const EXCLUDES(mutex_);

  struct Stats {
    u64 demand_hits = 0;    ///< get_blocking served from cache
    u64 demand_misses = 0;  ///< get_blocking had to load synchronously
    u64 prefetched = 0;     ///< background loads completed
    u64 failures = 0;       ///< background loads that threw (I/O errors)
  };
  Stats stats() const EXCLUDES(mutex_);

 private:
  void store_payload(BlockId id, std::vector<float> payload, bool prefetch)
      EXCLUDES(mutex_);
  void note_failure(BlockId id) EXCLUDES(mutex_);

  const BlockStore& store_;
  mutable Mutex mutex_;
  std::unordered_map<BlockId, Payload> cache_ GUARDED_BY(mutex_);
  /// In-flight read table (self-synchronized; never touched under mutex_).
  RequestCoalescer coalescer_;
  Stats stats_ GUARDED_BY(mutex_);
  /// Declared last on purpose: the pool is destroyed (and its workers
  /// joined) before any state its tasks touch, so a forgotten drain can
  /// never become a use-after-free of cache_/mutex_.
  ThreadPool pool_;
};

}  // namespace vizcache
