#pragma once

#include "core/importance.hpp"
#include "core/pipeline.hpp"
#include "core/visibility_table.hpp"
#include "geom/path.hpp"
#include "storage/hierarchy.hpp"

namespace vizcache {

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
  static usize timestep(BlockId key, usize block_count) {
    return key / block_count;
  }
};

/// How simulation time advances while the user explores.
struct PlaybackSpec {
  usize timesteps = 4;          ///< timesteps of the dataset
  usize steps_per_timestep = 8; ///< camera-path steps per simulation step
  bool loop = false;            ///< wrap around at the end vs clamp
};

/// Configuration of a time-varying run.
struct TemporalConfig {
  bool app_aware = false;
  PolicyKind policy = PolicyKind::kLru;
  double sigma_bits = 0.0;
  bool preload_important = true;
  /// Also prefetch the current view's blocks *at the next timestep* during
  /// rendering — the temporal extension of the paper's prefetch (its
  /// future-work direction for time-varying exploration).
  bool temporal_prefetch = true;
  RenderTimeModel render_model = gpu_render_model();
  LookupCostModel lookup_cost;
};

/// Pipeline for time-varying datasets: the working set of a path step is
/// the spatially visible blocks at the playback timestep, keyed per
/// (block, timestep). Prediction reuses the dataset-independent T_visible
/// (visibility does not depend on t), while importance uses per-timestep
/// entropy tables.
class TemporalPipeline {
 public:
  /// `importance_per_step` must have exactly `playback.timesteps` entries
  /// when app_aware (per-timestep T_important); may be empty otherwise.
  TemporalPipeline(const BlockGrid& grid, MemoryHierarchy hierarchy,
                   TemporalConfig config, PlaybackSpec playback,
                   const VisibilityTable* table = nullptr,
                   const std::vector<ImportanceTable>* importance_per_step =
                       nullptr);

  RunResult run(const CameraPath& path);

  /// Timestep active at a 0-based path index.
  usize timestep_at(usize path_index) const;

 private:
  const BlockGrid& grid_;
  MemoryHierarchy hierarchy_;
  TemporalConfig config_;
  PlaybackSpec playback_;
  const std::vector<ImportanceTable>* importance_;
  /// Importance is per timestep: each step points a copy at its own.
  Algorithm1Setup algorithm1_;
  BlockBoundsIndex bounds_;
};

/// Hierarchy sized for a time-varying dataset: capacity ratios are applied
/// to the bytes of ALL timesteps (the backing store holds every step).
MemoryHierarchy make_temporal_hierarchy(const BlockGrid& grid,
                                        usize timesteps, double cache_ratio,
                                        PolicyKind policy);

}  // namespace vizcache
