#pragma once

#include <optional>
#include <vector>

#include "core/algorithm1.hpp"
#include "core/importance.hpp"
#include "core/query.hpp"
#include "core/visibility.hpp"
#include "core/visibility_table.hpp"
#include "geom/path.hpp"
#include "render/render_model.hpp"
#include "storage/hierarchy.hpp"
#include "util/metrics.hpp"
#include "util/step_timeline.hpp"

namespace vizcache {

/// Whole-run aggregate: the one record of a run. A driver appends each step
/// (and, where it keeps a timeline, its spans) as it goes and finishes
/// through summarize(), which derives every other field from `steps` and the
/// hierarchy's stats.
struct RunResult {
  std::vector<StepResult> steps;
  HierarchyStats hierarchy;
  StepTimeline timeline;        ///< per-step spans on the simulated clock
  MetricsSnapshot metrics;      ///< the run's snapshot, written by summarize()

  double fast_miss_rate = 0.0;  ///< DRAM-level miss fraction
  double total_miss_rate = 0.0; ///< paper's multi-level miss rate
  SimSeconds io_time = 0.0;
  SimSeconds lookup_time = 0.0;
  SimSeconds prefetch_time = 0.0;
  SimSeconds render_time = 0.0;
  SimSeconds total_time = 0.0;

  /// The paper's Fig. 7b metric: demand I/O plus table-lookup overhead.
  SimSeconds io_plus_lookup() const { return io_time + lookup_time; }

  /// Fills the aggregates from `steps` and the hierarchy's end-of-run stats,
  /// then writes them into `metrics`: the counter `pipeline.steps`, the
  /// gauges `pipeline.{io,lookup,prefetch,render,total}_seconds` and
  /// `pipeline.fast_miss_rate`, the histogram `pipeline.step.total_seconds`
  /// of the steps' total times, and `stats` under the prefix `hierarchy`
  /// (report_metrics). Call once, when the last step is in.
  void summarize(const HierarchyStats& stats);
};

/// Configuration of one visualization run over a camera path.
struct PipelineConfig {
  /// When set, runs the application-aware pipeline (paper Algorithm 1):
  /// preload by importance, demand-fetch with protected LRU, prefetch the
  /// predicted next-view blocks (entropy > sigma) overlapped with rendering.
  bool app_aware = false;

  /// Replacement policy of every hierarchy level. Baselines: kFifo / kLru /
  /// any zoo member. The app-aware mode uses kLru (Algorithm 1's
  /// lowest-time-value replacement is exactly LRU + per-step protection).
  PolicyKind policy = PolicyKind::kLru;

  /// Entropy threshold sigma (bits). Blocks must exceed it to be preloaded
  /// (line 7) or prefetched (line 22). Ignored for baselines.
  double sigma_bits = 0.0;

  /// Preload important blocks before the walk (line 7). App-aware only.
  bool preload_important = true;

  RenderTimeModel render_model = gpu_render_model();
  LookupCostModel lookup_cost;
};

/// Executes camera-path runs against a block grid and a memory hierarchy.
/// The pipeline is purely simulation-driven (it never touches payload
/// bytes), which keeps the full Fig. 7/9/11/12/13 sweeps fast and exactly
/// deterministic; the example apps exercise the same logic against real
/// file I/O and the real ray-caster.
class VizPipeline {
 public:
  /// `table`/`importance` may be null for baseline runs. `metadata` enables
  /// query-driven runs (data-dependent operations).
  VizPipeline(const BlockGrid& grid, MemoryHierarchy hierarchy,
              PipelineConfig config, const VisibilityTable* table = nullptr,
              const ImportanceTable* importance = nullptr,
              const BlockMetadataTable* metadata = nullptr);

  /// Run a full camera path from a cold (or preloaded) hierarchy. With a
  /// query `schedule` (requires metadata), each step's working set is the
  /// view-visible blocks that also pass the step's active query — the
  /// paper's dynamically-changed transfer function / query workload.
  RunResult run(const CameraPath& path, const QuerySchedule* schedule = nullptr);

  MemoryHierarchy& hierarchy() { return hierarchy_; }

 private:
  MemoryHierarchy hierarchy_;
  PipelineConfig config_;
  Algorithm1Setup algorithm1_;
  const BlockMetadataTable* metadata_;
  BlockBoundsIndex bounds_;
};

}  // namespace vizcache
