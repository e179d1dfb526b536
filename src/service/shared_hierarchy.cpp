#include "service/shared_hierarchy.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/error.hpp"

namespace vizcache {

SharedHierarchy::SharedHierarchy(MemoryHierarchy hierarchy,
                                 double leader_pace_seconds)
    : leader_pace_seconds_(leader_pace_seconds),
      fast_capacity_bytes_(hierarchy.cache(0).capacity_bytes()),
      hier_(std::move(hierarchy)) {
  VIZ_REQUIRE(leader_pace_seconds_ >= 0.0, "pace must be non-negative");
}

u64 SharedHierarchy::begin_step() {
  MutexLock lock(mutex_);
  const u64 epoch = ++next_epoch_;
  active_epochs_.insert(epoch);
  return epoch;
}

void SharedHierarchy::end_step(u64 epoch) {
  MutexLock lock(mutex_);
  auto it = active_epochs_.find(epoch);
  VIZ_REQUIRE(it != active_epochs_.end(), "end_step of an unregistered epoch");
  active_epochs_.erase(it);  // erase one instance, not every equal key
}

u64 SharedHierarchy::protect_floor_locked(u64 epoch) const {
  if (active_epochs_.empty()) return epoch;
  return std::min(epoch, *active_epochs_.begin());
}

void SharedHierarchy::pace() const {
  if (leader_pace_seconds_ <= 0.0) return;
  // analyze: allow(hot-path-block): deliberate wall-clock throttle of
  // coalescer leaders (ServiceConfig.leader_pace_seconds); off by default,
  // and only ever reached by the session that already owns the slow read.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(leader_pace_seconds_));
}

bool SharedHierarchy::miss_reads_in_hold() const {
  return leader_pace_seconds_ <= 0.0 && coalescer_.in_flight_count() == 0;
}

bool SharedHierarchy::fetch_in_hold_locked(BlockId id, u64 epoch,
                                           FetchResult& out) {
  const bool hit = hier_.resident_fast(id);
  if (!hit && !miss_reads_in_hold()) return false;
  out.seconds = hier_.fetch(id, epoch, protect_floor_locked(epoch));
  out.fast_hit = hit;
  out.coalesced = false;
  return true;
}

SharedHierarchy::FetchResult SharedHierarchy::fetch_outside_hold(BlockId id,
                                                                 u64 epoch) {
  FetchResult result;
  bool waited = false;
  for (;;) {
    // Claim the slow read, or wait for whoever holds it.
    if (coalescer_.try_claim(id)) {
      pace();  // keep the in-flight window open on the wall clock
      {
        MutexLock lock(mutex_);
        // Probed again: an unpaced read in another hold may have landed the
        // block since this one found it missing.
        result.fast_hit = hier_.resident_fast(id);
        result.seconds = hier_.fetch(id, epoch, protect_floor_locked(epoch));
      }
      coalescer_.complete(id);
      return result;
    }
    // Another reader's claim is in flight: wait (outside mutex_, on the
    // coalescer's own leaf lock) and re-probe. Usually the leader's
    // promotion makes the probe a fast hit; if the block was already
    // evicted again, the loop claims it afresh.
    if (coalescer_.wait(id)) waited = true;
    MutexLock lock(mutex_);
    if (hier_.resident_fast(id)) {
      result.seconds = hier_.fetch(id, epoch, protect_floor_locked(epoch));
      result.fast_hit = true;
      // A coalesced hit is only the case where waiting on another
      // session's read is what made this probe fast. A waiter whose
      // leader landed nothing (block evicted again before the re-probe)
      // pays its own slow read and must NOT count as coalesced.
      result.coalesced = waited;
      return result;
    }
  }
}

SharedHierarchy::FetchResult SharedHierarchy::fetch(BlockId id, u64 epoch) {
  FetchResult result;
  {
    MutexLock lock(mutex_);
    if (fetch_in_hold_locked(id, epoch, result)) return result;
  }
  return fetch_outside_hold(id, epoch);
}

SharedHierarchy::FetchTotals SharedHierarchy::fetch_all(
    std::span<const BlockId> ids, u64 epoch) {
  FetchTotals totals;
  usize i = 0;
  while (i < ids.size()) {
    {
      MutexLock lock(mutex_);
      FetchResult r;
      for (; i < ids.size() && fetch_in_hold_locked(ids[i], epoch, r); ++i) {
        totals.add(r);
      }
    }
    if (i < ids.size()) totals.add(fetch_outside_hold(ids[i++], epoch));
  }
  return totals;
}

SharedHierarchy::FetchResult SharedHierarchy::fetch_block(BlockId id) {
  u64 epoch = 0;
  {
    MutexLock lock(mutex_);
    epoch = ++next_epoch_;
    // Served in this hold, the epoch starts and retires here, so it needs no
    // entry in active_epochs_: the floor is the same either way.
    FetchResult result;
    if (fetch_in_hold_locked(id, epoch, result)) return result;
    active_epochs_.insert(epoch);  // the read leaves the hold
  }
  const FetchResult result = fetch_outside_hold(id, epoch);
  end_step(epoch);
  return result;
}

SharedHierarchy::PrefetchResult SharedHierarchy::prefetch(BlockId id,
                                                          u64 epoch) {
  PrefetchResult result;
  {
    MutexLock lock(mutex_);
    // Already fastest-resident, the hierarchy charges the request and
    // refreshes the block's protection timestamp at zero simulated cost; a
    // miss that needs no read window is read here too.
    if (hier_.resident_fast(id) || miss_reads_in_hold()) {
      result.seconds = hier_.prefetch(id, epoch, protect_floor_locked(epoch));
      result.performed = true;
      return result;
    }
  }
  if (!coalescer_.try_claim(id)) {
    result.suppressed = true;
    return result;
  }
  pace();
  {
    MutexLock lock(mutex_);
    result.seconds = hier_.prefetch(id, epoch, protect_floor_locked(epoch));
  }
  coalescer_.complete(id);
  result.performed = true;
  return result;
}

void SharedHierarchy::preload(BlockId id) {
  MutexLock lock(mutex_);
  hier_.preload(id);
}

bool SharedHierarchy::resident_fast(BlockId id) const {
  MutexLock lock(mutex_);
  return hier_.resident_fast(id);
}

usize SharedHierarchy::drop_resident(std::span<BlockId> ids) const {
  MutexLock lock(mutex_);
  usize kept = 0;
  for (BlockId id : ids) {
    if (!hier_.resident_fast(id)) ids[kept++] = id;
  }
  return kept;
}

HierarchyStats SharedHierarchy::stats() const {
  MutexLock lock(mutex_);
  return hier_.stats();
}

}  // namespace vizcache
