#include "service/request_coalescer.hpp"

namespace vizcache {

bool RequestCoalescer::try_claim(BlockId id) {
  MutexLock lock(mutex_);
  if (!in_flight_.insert(id).second) {
    ++stats_.suppressed;
    if (metrics_.suppressed) metrics_.suppressed->inc();
    return false;
  }
  in_flight_count_.store(in_flight_.size(), std::memory_order_relaxed);
  ++stats_.claims;
  if (metrics_.claims) metrics_.claims->inc();
  return true;
}

void RequestCoalescer::complete(BlockId id) {
  {
    MutexLock lock(mutex_);
    if (in_flight_.erase(id) == 0) return;
    in_flight_count_.store(in_flight_.size(), std::memory_order_relaxed);
    ++stats_.completions;
    if (metrics_.completions) metrics_.completions->inc();
  }
  // Notify outside the lock so woken waiters don't immediately block on it.
  cv_.notify_all();
}

bool RequestCoalescer::wait(BlockId id) {
  MutexLock lock(mutex_);
  if (in_flight_.count(id) == 0) return false;
  ++stats_.coalesced_waits;
  if (metrics_.coalesced_waits) metrics_.coalesced_waits->inc();
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

void RequestCoalescer::bind_metrics(MetricsRegistry* registry,
                                    const std::string& prefix) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.claims = &registry->counter(prefix + ".claims");
  metrics_.suppressed = &registry->counter(prefix + ".suppressed");
  metrics_.completions = &registry->counter(prefix + ".completions");
  metrics_.coalesced_waits = &registry->counter(prefix + ".coalesced_waits");
}

}  // namespace vizcache
