#pragma once

#include "core/pipeline.hpp"
#include "core/visibility.hpp"
#include "volume/mipmap.hpp"

namespace vizcache {

/// Level-of-detail selection by camera distance: a block at distance `dist`
/// from the camera renders from pyramid level
///   l = clamp(floor(log2(dist / base_distance)), 0, max_level)
/// so regions beyond base_distance use progressively coarser data — the
/// standard view-dependent strategy (paper Section III-B: "for a data
/// region far from the camera, only its coarser representation needs to be
/// loaded and rendered").
struct LodSelector {
  double base_distance = 2.0;
  usize max_level = 3;

  usize level_for(double dist) const;
};

/// Per-run results of the LOD baseline: a RunResult over the fetched coarse
/// keys, plus what the level choice cost and saved.
struct LodRunResult : RunResult {
  u64 bytes_fetched = 0;      ///< demand bytes served below the fast level
  /// Mean fraction of full resolution rendered, weighted per fine block:
  /// level l contributes (1/8)^l. 1.0 = everything at full res.
  double mean_fidelity = 1.0;
};

/// The conventional view-dependent baseline: multi-resolution data + LRU
/// (no prediction, no importance, no prefetch). Every step maps the
/// visible full-resolution blocks to their distance-selected pyramid level,
/// fetches the corresponding coarse blocks through the hierarchy, and
/// renders. It trades fidelity for I/O — which is exactly what
/// data-dependent operations cannot tolerate (the paper's motivation for
/// an application-aware policy that stages full-resolution blocks instead).
class LodPipeline {
 public:
  LodPipeline(const MipPyramid& pyramid, LodSelector selector,
              PolicyKind policy, double cache_ratio,
              RenderTimeModel render_model = gpu_render_model());

  LodRunResult run(const CameraPath& path);

 private:
  const MipPyramid& pyramid_;
  LodSelector selector_;
  RenderTimeModel render_model_;
  BlockBoundsIndex fine_bounds_;
  MemoryHierarchy hierarchy_;
};

}  // namespace vizcache
