#include "service/request_coalescer.hpp"

namespace vizcache {

bool RequestCoalescer::try_claim(BlockId id) {
  MutexLock lock(mutex_);
  if (!in_flight_.insert(id).second) {
    ++stats_.suppressed;
    return false;
  }
  in_flight_count_.store(in_flight_.size(), std::memory_order_relaxed);
  ++stats_.claims;
  return true;
}

void RequestCoalescer::complete(BlockId id) {
  {
    MutexLock lock(mutex_);
    if (in_flight_.erase(id) == 0) return;
    in_flight_count_.store(in_flight_.size(), std::memory_order_relaxed);
    ++stats_.completions;
  }
  // Notify outside the lock so woken waiters don't immediately block on it.
  cv_.notify_all();
}

bool RequestCoalescer::wait(BlockId id) {
  MutexLock lock(mutex_);
  if (in_flight_.count(id) == 0) return false;
  ++stats_.coalesced_waits;
  // analyze: allow(hot-path-block): coalescing IS the wait — the follower
  // parks until the leader's in-flight read lands instead of issuing a
  // duplicate device read (the paper's shared-read optimization).
  while (in_flight_.count(id) != 0) cv_.wait(mutex_);
  return true;
}

bool RequestCoalescer::in_flight(BlockId id) const {
  MutexLock lock(mutex_);
  return in_flight_.count(id) != 0;
}

RequestCoalescer::Stats RequestCoalescer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void report_metrics(const RequestCoalescer::Stats& stats,
                    const std::string& prefix, MetricsSnapshot& out) {
  out.add_counter(prefix + ".claims", stats.claims);
  out.add_counter(prefix + ".suppressed", stats.suppressed);
  out.add_counter(prefix + ".completions", stats.completions);
  out.add_counter(prefix + ".coalesced_waits", stats.coalesced_waits);
}

}  // namespace vizcache
