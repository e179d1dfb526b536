#pragma once

#include <span>
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

/// Cache key for a (block, timestep) pair of a time-varying dataset. The
/// paper's climate set is time-varying (Table I): during playback the same
/// spatial block at different timesteps holds different data and must be
/// staged separately.
struct TimeBlockKey {
  /// Dense key: id + timestep * block_count. Requires the product to fit
  /// BlockId (checked by the pipeline constructor).
  static BlockId pack(BlockId id, usize timestep, usize block_count) {
    return static_cast<BlockId>(id + timestep * block_count);
  }
  static BlockId spatial(BlockId key, usize block_count) {
    return key % static_cast<BlockId>(block_count);
  }
};

/// How simulation time advances while the user explores. The default, one
/// timestep, is a static dataset.
struct PlaybackSpec {
  usize timesteps = 1;          ///< timesteps of the dataset
  usize steps_per_timestep = 8; ///< camera-path steps per simulation step
  bool loop = false;            ///< wrap around at the end vs clamp
  /// Also prefetch the current view's blocks *at the next timestep* during
  /// rendering — the temporal extension of the paper's prefetch (its
  /// future-work direction for time-varying exploration). App-aware only.
  bool temporal_prefetch = true;

  /// Timestep active at a 0-based path index. Needs both counts >= 1,
  /// which the VizPipeline constructor checks.
  usize timestep_at(usize path_index) const;
};

/// Executes camera-path runs against a block grid and a memory hierarchy:
/// the one Algorithm 1 driver over a single hierarchy, for static datasets
/// and time-varying playback alike. The pipeline is purely simulation-driven
/// (it never touches payload bytes), which keeps the full Fig. 7/9/11/12/13
/// sweeps fast and exactly deterministic; the example apps exercise the same
/// logic against real file I/O and the real ray-caster.
class VizPipeline {
 public:
  /// `table` may be null and `importance` empty for baseline runs; an
  /// app-aware run needs T_visible and one T_important per playback
  /// timestep. `metadata` enables query-driven runs (data-dependent
  /// operations). The tables must outlive the pipeline.
  VizPipeline(const BlockGrid& grid, MemoryHierarchy hierarchy,
              PipelineConfig config, const VisibilityTable* table = nullptr,
              std::span<const ImportanceTable> importance = {},
              const BlockMetadataTable* metadata = nullptr,
              PlaybackSpec playback = {});

  /// Run a full camera path from a cold (or preloaded) hierarchy. Step `i`
  /// works on the keys of timestep `playback.timestep_at(i)`. Prediction
  /// reuses the dataset-independent T_visible (visibility does not depend on
  /// t), while importance is that timestep's table. With a query `schedule`
  /// (requires metadata and one timestep), each step's working set is the
  /// view-visible blocks that also pass the step's active query — the
  /// paper's dynamically-changed transfer function / query workload.
  RunResult run(const CameraPath& path, const QuerySchedule* schedule = nullptr);

  MemoryHierarchy& hierarchy() { return hierarchy_; }

 private:
  MemoryHierarchy hierarchy_;
  PipelineConfig config_;
  PlaybackSpec playback_;
  std::span<const ImportanceTable> importance_;
  /// Each step points a copy at its timestep's importance table.
  Algorithm1Setup algorithm1_;
  const BlockMetadataTable* metadata_;
  BlockBoundsIndex bounds_;
};

/// Hierarchy sized for a time-varying dataset: capacity ratios are applied
/// to the bytes of ALL timesteps (the backing store holds every step).
MemoryHierarchy make_temporal_hierarchy(const BlockGrid& grid,
                                        usize timesteps, double cache_ratio,
                                        PolicyKind policy);

}  // namespace vizcache
