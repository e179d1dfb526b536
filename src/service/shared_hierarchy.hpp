#pragma once

#include <set>
#include <span>

#include "service/request_coalescer.hpp"
#include "storage/hierarchy.hpp"
#include "util/annotated_mutex.hpp"

namespace vizcache {

/// Lock-disciplined façade putting ONE MemoryHierarchy behind real-thread
/// sessions. The hierarchy itself stays "thread-compatible, not thread-safe"
/// (block_cache.hpp); every touch of it here happens under mutex_, a leaf
/// lock per DESIGN.md — no code path holds it while sleeping, waiting, or
/// taking the coalescer's lock (under it, only the coalescer's lock-free
/// claim count is read).
///
/// Two concerns are layered on top of the raw hierarchy:
///
/// *Per-session step protection.* The single-consumer pipelines protect a
/// step's working set by passing the step number as both timestamp and
/// eviction floor (Algorithm 1 line 16). With N sessions interleaving their
/// steps, session-local step numbers are incomparable, so sessions instead
/// draw *epochs* from one shared monotonic counter: begin_step() registers an
/// epoch in a multiset of in-progress steps, and every insert uses
/// protect_floor = min(active epochs). A block touched by ANY unfinished step
/// therefore has last_use >= floor and cannot be victimized until that step
/// ends — session A's eviction scan never steals what session B used this
/// step.
///
/// *Request coalescing.* A read that needs a window — a paced leader, or a
/// miss while another reader holds a claim — claims the block in the
/// RequestCoalescer before touching the slow path; concurrent sessions
/// demanding the same block block on the coalescer's CondVar (outside
/// mutex_), then re-probe — by then the leader's promotion has made the block
/// a fast hit, so K overlapping demands cost one backing read. Every other
/// miss is read in the hold that found it: the read is instantaneous on the
/// wall clock and lands before mutex_ is released, so no second reader can
/// see the block missing, and the coalescer sees no traffic.
///
/// *Batch calls.* fetch_all() walks a step's visible list and
/// drop_resident() filters its prefetch candidates, each under one hold of
/// mutex_ and in list order, so a step takes the lock a few times instead of
/// once per block.
class SharedHierarchy {
 public:
  /// `leader_pace_seconds` holds a leader's in-flight marker open for a real
  /// wall-clock beat (sleeping outside every lock) before it performs the
  /// simulated read. The hierarchy's own time is simulated — a "read" under
  /// the lock is instantaneous on the wall clock — so without pacing the
  /// coalescing window does not exist. The serving demos and the paced
  /// stress tests set 0.2-1 ms to make coalesced reads measurable; at 0
  /// every miss is read in the hold that found it.
  explicit SharedHierarchy(MemoryHierarchy hierarchy,
                           double leader_pace_seconds = 0.0);

  /// Register the start of a session step; returns the step's epoch, which
  /// the session passes to fetch/prefetch until it calls end_step(epoch).
  /// Blocks the step touches are eviction-protected until then.
  u64 begin_step() EXCLUDES(mutex_);
  void end_step(u64 epoch) EXCLUDES(mutex_);

  struct FetchResult {
    SimSeconds seconds = 0.0;  ///< simulated serving time
    bool fast_hit = false;     ///< served by the fastest (DRAM) level
    bool coalesced = false;    ///< fast hit produced by waiting on another
                               ///< session's in-flight read (never set when
                               ///< this fetch paid its own backing read)
  };

  struct PrefetchResult {
    SimSeconds seconds = 0.0;
    bool performed = false;    ///< the hierarchy actually ran the prefetch
    bool suppressed = false;   ///< dropped: the block is already in flight
  };

  /// A batch walk's results, summed over its blocks in list order.
  struct FetchTotals {
    SimSeconds seconds = 0.0;
    usize fast_misses = 0;
    usize coalesced = 0;

    void add(const FetchResult& r) {
      seconds += r.seconds;
      if (!r.fast_hit) ++fast_misses;
      if (r.coalesced) ++coalesced;
    }
  };

  /// Demand-fetch `id` for the step with epoch `epoch`. Never performs a
  /// duplicate backing read: a miss while another session reads the same
  /// block waits for that read, and is reported as coalesced iff the wait
  /// is what served it (the post-wait probe hit fast memory).
  FetchResult fetch(BlockId id, u64 epoch) EXCLUDES(mutex_);

  /// fetch() of every id in `ids`, in order, under one hold of mutex_. Only
  /// a block that needs a read window (see the class comment) leaves the
  /// hold, through fetch()'s claim/wait path; the walk then retakes the
  /// lock for the rest of the list.
  FetchTotals fetch_all(std::span<const BlockId> ids, u64 epoch)
      EXCLUDES(mutex_);

  /// fetch() outside any step: draws an epoch, fetches `id` under it and
  /// retires it, all in one hold unless the read needs a window (the FETCH
  /// verb's path).
  FetchResult fetch_block(BlockId id) EXCLUDES(mutex_);

  /// Prefetch `id`. Prefetches never wait: if the block is claimed by
  /// another reader the request is suppressed (the data is on its way
  /// regardless — charging a second read would be the duplicate the
  /// coalescer exists to prevent).
  PrefetchResult prefetch(BlockId id, u64 epoch) EXCLUDES(mutex_);

  /// Pre-processing placement (no simulated time, no counters).
  void preload(BlockId id) EXCLUDES(mutex_);

  bool resident_fast(BlockId id) const EXCLUDES(mutex_);

  /// Moves the ids of `ids` not resident in fast memory to its front, in
  /// order, and returns their count; one hold of mutex_.
  usize drop_resident(std::span<BlockId> ids) const EXCLUDES(mutex_);

  /// Capacity of the fastest (DRAM) level; immutable after construction, so
  /// readable without the lock.
  u64 fast_capacity_bytes() const { return fast_capacity_bytes_; }

  /// Snapshot of the shared hierarchy's counters (copied under the lock).
  HierarchyStats stats() const EXCLUDES(mutex_);

  RequestCoalescer& coalescer() { return coalescer_; }
  const RequestCoalescer& coalescer() const { return coalescer_; }

 private:
  /// min(active epochs), clamped to `epoch` so a step that outlives its
  /// neighbours still satisfies BlockCache's floor <= step precondition.
  u64 protect_floor_locked(u64 epoch) const REQUIRES(mutex_);

  /// Serves `id` in the current hold when it is fast-resident, or when a
  /// miss needs no read window: leaders are unpaced and no claim is
  /// outstanding (the coalescer's lock-free count, so mutex_ stays a leaf
  /// lock). Returns false, touching nothing, when the block must take the
  /// claim/wait path instead.
  bool fetch_in_hold_locked(BlockId id, u64 epoch, FetchResult& out)
      REQUIRES(mutex_);

  /// True when a miss read now would need no window (see above).
  bool miss_reads_in_hold() const;

  /// fetch()'s claim/wait path for a block the hold could not serve.
  FetchResult fetch_outside_hold(BlockId id, u64 epoch) EXCLUDES(mutex_);

  /// Wall-clock sleep of leader_pace_seconds_; called with no lock held.
  void pace() const EXCLUDES(mutex_);

  mutable Mutex mutex_;
  // Both read-only after construction, hence lock-free readable. Declared
  // before hier_ so fast_capacity_bytes_ can be read from the constructor
  // parameter before it is moved from.
  const double leader_pace_seconds_;
  const u64 fast_capacity_bytes_;
  MemoryHierarchy hier_ GUARDED_BY(mutex_);
  u64 next_epoch_ GUARDED_BY(mutex_) = 0;
  std::multiset<u64> active_epochs_ GUARDED_BY(mutex_);
  RequestCoalescer coalescer_;
};

}  // namespace vizcache
