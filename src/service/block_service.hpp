#pragma once

#include <optional>
#include <unordered_map>

#include "core/algorithm1.hpp"
#include "core/importance.hpp"
#include "core/visibility.hpp"
#include "core/visibility_table.hpp"
#include "render/render_model.hpp"
#include "service/shared_hierarchy.hpp"
#include "util/metrics.hpp"

namespace vizcache {

/// Identifies one open session.
using SessionId = u32;

/// Service-wide knobs.
struct ServiceConfig {
  /// Admission control, part 1: open_session() beyond this cap is rejected
  /// (returns nullopt) instead of degrading every admitted session.
  usize max_sessions = 8;

  /// Admission control, part 2: aggregate prefetch budget per step, in
  /// bytes, split evenly across the sessions active at that moment (the
  /// fairness policy — every session gets capacity/N, so a prefetch-hungry
  /// session cannot starve the others). Prefetch beyond a session's share is
  /// shed; demand fetches are NEVER shed. 0 means unbounded.
  u64 aggregate_prefetch_budget_bytes = 0;

  /// Run sessions application-aware (Algorithm 1: T_visible prediction +
  /// entropy-filtered prefetch overlapped with render). When false, sessions
  /// are demand-only baselines.
  bool app_aware = true;

  /// Preload important blocks (entropy > sigma, best first) into the shared
  /// fast level at construction — the service-wide analogue of Algorithm 1
  /// line 7, done once because the cache is shared.
  bool preload_important = false;

  double sigma_bits = 0.0;          ///< entropy threshold for preload/prefetch
  RenderTimeModel render_model = gpu_render_model();
  LookupCostModel lookup_cost;

  /// Wall-clock pacing of coalescer leaders (see SharedHierarchy).
  double leader_pace_seconds = 0.0;
};

/// One session step's outcome: Algorithm 1's StepResult (`step` is the
/// session-local ordinal, 1-based) plus what the shared hierarchy and the
/// admission controller did to it.
struct SessionStepResult : StepResult {
  usize coalesced_hits = 0;      ///< demand fetches served by waiting on
                                 ///< another session's in-flight read
  usize prefetch_shed = 0;       ///< dropped by the admission controller
  usize prefetch_suppressed = 0; ///< dropped: block already in flight
};

/// Whole-of-life aggregate returned by close_session().
struct SessionSummary {
  SessionId id = 0;
  u64 steps = 0;
  u64 demand_requests = 0;
  u64 fast_misses = 0;
  u64 coalesced_hits = 0;
  u64 prefetched = 0;
  u64 prefetch_shed = 0;
  u64 prefetch_suppressed = 0;
  SimSeconds sim_time = 0.0;     ///< sum of the session's step total times
};

/// Multi-session block service: N concurrent viewers, ONE shared
/// MemoryHierarchy. Each step runs the paper's per-step logic (demand-fetch
/// the visible set, render, predict + prefetch) against the SharedHierarchy,
/// which adds cross-session eviction protection and read coalescing.
///
/// Thread-safety: open_session/step/close_session may be called from any
/// thread. mutex_ guards only the service's own bookkeeping (the session
/// map) and is a leaf lock: it is NEVER held across a SharedHierarchy
/// call, so the two leaf locks are acquired strictly sequentially — the
/// DESIGN.md no-nesting rule holds through the whole stack. The one rule the
/// CALLER must keep: don't close a session while one of its steps is still
/// executing on another thread (sessions are single-viewer by nature).
class BlockService {
 public:
  /// `grid`, `table` and `importance` must outlive the service. table /
  /// importance may be null only when config.app_aware is false.
  BlockService(const BlockGrid& grid, MemoryHierarchy hierarchy,
               ServiceConfig config, const VisibilityTable* table = nullptr,
               const ImportanceTable* importance = nullptr);

  /// Admit a session, or reject (nullopt) when max_sessions are open. Never
  /// hands out an id that is still open, even after the u32 counter wraps.
  std::optional<SessionId> open_session() EXCLUDES(mutex_);

  /// Test hook: reposition the id cursor (e.g. next to the u32 wrap) so the
  /// wraparound path is exercisable without 2^32 opens.
  void set_next_session_id(SessionId next) EXCLUDES(mutex_);

  /// One demand fetch outside a step — the network front-end's FETCH verb.
  struct BlockFetch {
    SharedHierarchy::FetchResult fetch;
    u64 bytes = 0;             ///< the block's payload size
  };

  /// Demand-fetch a single block for `session`, epoch-bracketed like a step
  /// and counted into the session summary. Thread-safe across sessions.
  BlockFetch fetch_block(SessionId session, BlockId id) EXCLUDES(mutex_);

  /// Serve one step of `session` at `camera`. Thread-safe across sessions.
  SessionStepResult step(SessionId session, const Camera& camera)
      EXCLUDES(mutex_);

  /// Retire a session and return its life aggregate.
  SessionSummary close_session(SessionId session) EXCLUDES(mutex_);

  usize active_sessions() const EXCLUDES(mutex_);

  SharedHierarchy& hierarchy() { return shared_; }
  const SharedHierarchy& hierarchy() const { return shared_; }
  const BlockGrid& grid() const { return grid_; }

  /// The service's registry: service.* instruments; its snapshots add the
  /// shared hierarchy's stats (`service.hierarchy.*`, `cache.*`) and the
  /// coalescer's (`service.hierarchy.coalescer.*`), read when taken.
  MetricsRegistry& metrics() { return metrics_; }

 private:
  /// Registry instruments cached at construction (all owned by metrics_).
  struct Instruments {
    MetricCounter* opened = nullptr;
    MetricCounter* closed = nullptr;
    MetricCounter* rejected = nullptr;
    MetricGauge* active = nullptr;
    MetricCounter* steps = nullptr;
    MetricCounter* demand_requests = nullptr;
    MetricCounter* coalesced_hits = nullptr;
    MetricCounter* fast_misses = nullptr;
    MetricCounter* prefetched = nullptr;
    MetricCounter* prefetch_shed = nullptr;
    MetricCounter* prefetch_suppressed = nullptr;
    MetricHistogram* step_seconds = nullptr;
  };

  const BlockGrid& grid_;
  const ServiceConfig config_;
  const Algorithm1Setup algorithm1_;
  const BlockBoundsIndex bounds_;
  MetricsRegistry metrics_;
  SharedHierarchy shared_;

  mutable Mutex mutex_;
  /// Each open session's running aggregate, id pre-filled.
  std::unordered_map<SessionId, SessionSummary> sessions_ GUARDED_BY(mutex_);
  SessionId next_session_ GUARDED_BY(mutex_) = 1;
  // analyze: allow(lock-unguarded-field): pointers set once in the
  // constructor, before any session thread exists; counters are atomic.
  Instruments ins_;
};

}  // namespace vizcache
