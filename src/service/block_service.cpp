#include "service/block_service.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace vizcache {

namespace {

/// Algorithm 1's port over the shared hierarchy for one session step, bound
/// to the step's epoch and the session's fair share of the prefetch budget.
class SessionPort final : public HierarchyPort {
 public:
  SessionPort(SharedHierarchy& shared, u64 epoch, u64 prefetch_share)
      : shared_(shared), epoch_(epoch), share_(prefetch_share) {}
  Fetch fetch_all(std::span<const BlockId> ids) override {
    const SharedHierarchy::FetchTotals t = shared_.fetch_all(ids, epoch_);
    coalesced_hits += t.coalesced;
    return {t.seconds, t.fast_misses};
  }
  usize drop_resident(std::span<BlockId> ids) const override {
    return shared_.drop_resident(ids);
  }
  Prefetch prefetch(BlockId id, u64 bytes) override {
    // Blowing the fair share sheds only THIS block: a smaller one may still
    // fit, and demand fetches are never shed.
    if (bytes > share_) {
      ++shed;
      return {0.0, true};
    }
    const SharedHierarchy::PrefetchResult pr = shared_.prefetch(id, epoch_);
    if (pr.suppressed) {
      ++suppressed;  // in flight elsewhere: budget not consumed
      return {0.0, true};
    }
    share_ -= bytes;
    return {pr.seconds, false};
  }
  void preload(BlockId id) override { shared_.preload(id); }
  u64 fast_capacity_bytes() const override {
    return shared_.fast_capacity_bytes();
  }

  usize coalesced_hits = 0, shed = 0, suppressed = 0;

 private:
  SharedHierarchy& shared_;
  u64 epoch_;
  u64 share_;
};

}  // namespace

BlockService::BlockService(const BlockGrid& grid, MemoryHierarchy hierarchy,
                           ServiceConfig config, const VisibilityTable* table,
                           const ImportanceTable* importance)
    : grid_(grid),
      config_(config),
      algorithm1_{&grid, table, importance, config.app_aware,
                  config.sigma_bits, config.render_model, config.lookup_cost},
      bounds_(grid),
      shared_(std::move(hierarchy), config.leader_pace_seconds) {
  if (config_.app_aware) {
    VIZ_REQUIRE(table != nullptr, "app-aware service needs T_visible");
    VIZ_REQUIRE(importance != nullptr, "app-aware service needs T_important");
  }
  // The shared hierarchy's and the coalescer's counters stay in their stats
  // structs; a snapshot reads them, taking each one's lock in turn.
  metrics_.add_snapshot_hook([this](MetricsSnapshot& out) {
    report_metrics(shared_.stats(), "service.hierarchy", out);
    report_metrics(shared_.coalescer().stats(), "service.hierarchy.coalescer",
                   out);
  });
  ins_.opened = &metrics_.counter("service.sessions.opened");
  ins_.closed = &metrics_.counter("service.sessions.closed");
  ins_.rejected = &metrics_.counter("service.sessions.rejected");
  ins_.active = &metrics_.gauge("service.sessions.active");
  ins_.steps = &metrics_.counter("service.steps");
  ins_.demand_requests = &metrics_.counter("service.demand.requests");
  ins_.coalesced_hits = &metrics_.counter("service.demand.coalesced_hits");
  ins_.fast_misses = &metrics_.counter("service.demand.fast_misses");
  ins_.prefetched = &metrics_.counter("service.prefetch.blocks");
  ins_.prefetch_shed = &metrics_.counter("service.prefetch.shed");
  ins_.prefetch_suppressed = &metrics_.counter("service.prefetch.suppressed");
  ins_.step_seconds = &metrics_.histogram("service.step.sim_seconds",
                                          latency_seconds_bounds());

  // Service-wide analogue of Algorithm 1 line 7: warm the SHARED fast level
  // once, most important blocks first, before any session arrives.
  if (config_.app_aware && config_.preload_important) {
    SessionPort port(shared_, 0, std::numeric_limits<u64>::max());
    const PreloadCounts counts = preload_important(
        port, grid_, *importance, importance->ranked(), config_.sigma_bits);
    metrics_.counter("service.preload.scanned").inc(counts.scanned);
    metrics_.counter("service.preload.blocks").inc(counts.preloaded);
  }
}

std::optional<SessionId> BlockService::open_session() {
  MutexLock lock(mutex_);
  if (sessions_.size() >= config_.max_sessions) {
    ins_.rejected->inc();
    return std::nullopt;
  }
  // After next_session_ (u32) wraps, the next candidate id can belong to a
  // still-open long-lived session; aliasing it would hand two viewers one
  // session. Skip live ids — the map holds at most max_sessions
  // entries, so this terminates long before the counter laps itself.
  SessionId id = next_session_++;
  while (sessions_.find(id) != sessions_.end()) id = next_session_++;
  SessionSummary summary;
  summary.id = id;
  const bool inserted = sessions_.emplace(id, summary).second;
  VIZ_CHECK(inserted, "open_session raced an id it just probed as free");
  ins_.opened->inc();
  ins_.active->set(static_cast<double>(sessions_.size()));
  return id;
}

void BlockService::set_next_session_id(SessionId next) {
  MutexLock lock(mutex_);
  next_session_ = next;
}

BlockService::BlockFetch BlockService::fetch_block(SessionId session,
                                                   BlockId id) {
  VIZ_REQUIRE(id < grid_.block_count(), "fetch_block: block id out of range");
  {
    MutexLock lock(mutex_);
    VIZ_REQUIRE(sessions_.find(session) != sessions_.end(),
                "fetch_block on a closed or unknown session");
  }
  // Under its own epoch, like a step, so the shared eviction protection
  // covers the read; no service lock is held across the hierarchy call.
  BlockFetch result;
  result.fetch = shared_.fetch_block(id);
  result.bytes = grid_.block_bytes(id);

  ins_.demand_requests->inc();
  if (result.fetch.coalesced) ins_.coalesced_hits->inc();
  if (!result.fetch.fast_hit) ins_.fast_misses->inc();
  {
    MutexLock lock(mutex_);
    auto it = sessions_.find(session);
    VIZ_REQUIRE(it != sessions_.end(), "session closed during fetch_block");
    SessionSummary& sum = it->second;
    sum.demand_requests += 1;
    if (result.fetch.coalesced) sum.coalesced_hits += 1;
    if (!result.fetch.fast_hit) sum.fast_misses += 1;
  }
  return result;
}

SessionStepResult BlockService::step(SessionId session, const Camera& camera) {
  u64 ordinal = 0;
  u64 prefetch_share = std::numeric_limits<u64>::max();
  {
    MutexLock lock(mutex_);
    auto it = sessions_.find(session);
    VIZ_REQUIRE(it != sessions_.end(), "step on a closed or unknown session");
    ordinal = ++it->second.steps;
    // Fairness: the aggregate prefetch budget is split evenly over the
    // sessions active RIGHT NOW, so one session's appetite cannot consume
    // another's share. Recomputed every step as sessions come and go.
    if (config_.aggregate_prefetch_budget_bytes > 0) {
      prefetch_share = config_.aggregate_prefetch_budget_bytes /
                       std::max<usize>(usize{1}, sessions_.size());
    }
  }

  // From here to the final bookkeeping block the service holds NO lock of
  // its own — every shared_ call manages the hierarchy leaf lock internally,
  // and the coalescer may block this thread while other sessions proceed.
  const u64 epoch = shared_.begin_step();
  const std::vector<BlockId> visible = bounds_.visible_blocks(camera);
  std::span<const BlockId> predicted;
  if (config_.app_aware) {
    predicted = algorithm1_.table->query(camera.position());
  }
  SessionPort port(shared_, epoch, prefetch_share);
  const StepResult core =
      algorithm1_step(algorithm1_, port, ordinal, visible, predicted);
  shared_.end_step(epoch);
  const SessionStepResult sr{core, port.coalesced_hits, port.shed,
                             port.suppressed};

  ins_.steps->inc();
  ins_.demand_requests->inc(sr.visible_blocks);
  ins_.coalesced_hits->inc(sr.coalesced_hits);
  ins_.fast_misses->inc(sr.fast_misses);
  ins_.prefetched->inc(sr.prefetched);
  ins_.prefetch_shed->inc(sr.prefetch_shed);
  ins_.prefetch_suppressed->inc(sr.prefetch_suppressed);
  ins_.step_seconds->observe(sr.total_time);

  {
    MutexLock lock(mutex_);
    auto it = sessions_.find(session);
    VIZ_REQUIRE(it != sessions_.end(), "session closed during its own step");
    SessionSummary& sum = it->second;
    sum.demand_requests += sr.visible_blocks;
    sum.fast_misses += sr.fast_misses;
    sum.coalesced_hits += sr.coalesced_hits;
    sum.prefetched += sr.prefetched;
    sum.prefetch_shed += sr.prefetch_shed;
    sum.prefetch_suppressed += sr.prefetch_suppressed;
    sum.sim_time += sr.total_time;
  }
  return sr;
}

SessionSummary BlockService::close_session(SessionId session) {
  MutexLock lock(mutex_);
  auto it = sessions_.find(session);
  VIZ_REQUIRE(it != sessions_.end(), "close of a closed or unknown session");
  const SessionSummary summary = it->second;
  sessions_.erase(it);
  ins_.closed->inc();
  ins_.active->set(static_cast<double>(sessions_.size()));
  return summary;
}

usize BlockService::active_sessions() const {
  MutexLock lock(mutex_);
  return sessions_.size();
}

}  // namespace vizcache
