#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace vizcache {

/// One simulated span of pipeline work: a demand-fetch batch, a T_visible
/// lookup, a prefetch batch, or a render, with simulated start/end times on
/// the run's global clock. `worker` is the parallel-pipeline worker index
/// (0 for the sequential pipeline); `blocks` is the number of blocks the
/// span covered (0 for lookup/render).
struct StepEvent {
  enum class Kind { kFetch, kLookup, kPrefetch, kRender };

  Kind kind = Kind::kFetch;
  u64 step = 0;
  u32 worker = 0;
  SimSeconds start = 0.0;
  SimSeconds end = 0.0;
  usize blocks = 0;
};

const char* step_event_kind_name(StepEvent::Kind kind);

/// Append-only per-run event timeline recorded by record_step_spans
/// (core/algorithm1.hpp) and ParallelPipeline::run. Makes Algorithm 1's overlap claim (line 22:
/// prefetch during rendering) directly inspectable below the per-run
/// aggregate: the app-aware pipeline's prefetch spans overlap its render
/// spans, a baseline's spans are strictly serial.
///
/// Thread-compatible, not thread-safe (the simulators record from one
/// thread); copies freely as part of RunResult.
class StepTimeline {
 public:
  void record(const StepEvent& event);

  const std::vector<StepEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  usize size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// Events of one kind, in record order.
  std::vector<StepEvent> events_of(StepEvent::Kind kind) const;

  /// Simulated end time of the last-ending event (0 when empty).
  SimSeconds span_end() const;

  /// Total simulated duration during which an event of kind `a` and an
  /// event of kind `b` on the SAME worker are simultaneously active. The
  /// paper's overlap claim in one number: for an app-aware run
  /// overlap_seconds(kPrefetch, kRender) > 0, for baselines it is 0.
  SimSeconds overlap_seconds(StepEvent::Kind a, StepEvent::Kind b) const;

  /// Chrome trace-event JSON ("traceEvents" array of complete events, one
  /// timeline lane per worker for fetch/render and one for lookup/prefetch
  /// so overlapped spans render side by side). Load via chrome://tracing or
  /// https://ui.perfetto.dev. Timestamps are simulated microseconds.
  std::string chrome_trace_json() const;

  /// Writes chrome_trace_json() + '\n' to `path`; throws IoError on failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<StepEvent> events_;
};

}  // namespace vizcache
