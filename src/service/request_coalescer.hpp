#pragma once

#include <atomic>
#include <string>
#include <unordered_set>

#include "util/annotated_mutex.hpp"
#include "util/metrics.hpp"
#include "util/types.hpp"

namespace vizcache {

/// In-flight read table: the single deduplication point for every real-thread
/// block reader in the repo. When K threads demand the same block, exactly
/// one (the *leader*, the thread whose try_claim() returned true) performs
/// the backing read; the others either skip the duplicate read
/// (AsyncPrefetcher::request) or block on wait() until the leader's
/// complete() lands (SharedHierarchy::fetch — a *coalesced* read).
///
/// This generalizes the in-flight-marker logic that used to live inside
/// AsyncPrefetcher::get_blocking/request: ownership semantics are identical
/// (a claim is held by exactly one reader; only that reader releases it), and
/// the CondVar adds the blocking-waiter capability the multi-session block
/// service needs.
///
/// Thread-safety: every method may be called from any thread. mutex_ is a
/// leaf lock (never held while calling out; wait() releases it inside the
/// CondVar, which is the standard exception). The caller must never hold one
/// of its own locks across wait() — that would make the caller's lock
/// non-leaf and deadlock-prone (see DESIGN.md, "Locking discipline").
class RequestCoalescer {
 public:
  /// Try to become the leader for `id`. Returns true when the caller now
  /// owns the in-flight marker and MUST eventually call complete(id) —
  /// including on a failed read, else the block wedges un-claimable.
  /// Returns false when another reader holds it (duplicate suppressed).
  bool try_claim(BlockId id) EXCLUDES(mutex_);

  /// Release the marker of `id` and wake all waiters. Idempotent: completing
  /// a block that is not in flight is a no-op (e.g. a failure path running
  /// after the marker was already released).
  void complete(BlockId id) EXCLUDES(mutex_);

  /// Block until no read of `id` is in flight. Returns true when the call
  /// actually slept (a coalesced wait), false when the block was not in
  /// flight to begin with. Spurious-wakeup safe (predicate loop).
  bool wait(BlockId id) EXCLUDES(mutex_);

  bool in_flight(BlockId id) const EXCLUDES(mutex_);

  /// Number of claims outstanding. Lock-free, so a caller holding its own
  /// leaf lock may read it (SharedHierarchy does, to decide whether a miss
  /// can be read without a claim). A claim racing the read may be missed;
  /// once every claimer has completed, the count is exact.
  usize in_flight_count() const {
    return in_flight_count_.load(std::memory_order_relaxed);
  }

  struct Stats {
    u64 claims = 0;           ///< try_claim calls that became leader
    u64 suppressed = 0;       ///< try_claim calls that found a read in flight
    u64 completions = 0;      ///< markers released (non-no-op complete calls)
    u64 coalesced_waits = 0;  ///< wait() calls that actually blocked
  };
  Stats stats() const EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  CondVar cv_;
  std::unordered_set<BlockId> in_flight_ GUARDED_BY(mutex_);
  /// in_flight_.size(), stored under mutex_ at every change.
  std::atomic<usize> in_flight_count_{0};
  Stats stats_ GUARDED_BY(mutex_);
};

/// Writes `stats` into `out` as the counters
/// `<prefix>.{claims,suppressed,completions,coalesced_waits}`.
void report_metrics(const RequestCoalescer::Stats& stats,
                    const std::string& prefix, MetricsSnapshot& out);

}  // namespace vizcache
