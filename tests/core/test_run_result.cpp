// Every driver finishes a run through RunResult::summarize, so every run's
// snapshot is written from that run's own record, under the same names.

#include <gtest/gtest.h>

#include "core/lod_pipeline.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/pipeline.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

void expect_snapshot_of_run(const RunResult& r) {
  ASSERT_FALSE(r.steps.empty());
  const MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.counter("pipeline.steps"), r.steps.size());
  EXPECT_EQ(m.gauge("pipeline.total_seconds"), r.total_time);
  EXPECT_EQ(m.histogram("pipeline.step.total_seconds").count, r.steps.size());
  EXPECT_EQ(m.counter("hierarchy.demand.requests"),
            r.hierarchy.demand_requests);
  EXPECT_GT(r.hierarchy.demand_requests, 0u);
}

CameraPath short_path() {
  RandomPathSpec rp;
  rp.positions = 12;
  return make_random_path(rp);
}

TEST(RunResult, EveryDriverFinishesWithItsSnapshot) {
  const BlockGrid grid({32, 32, 32}, {8, 8, 8});
  const CameraPath path = short_path();
  const PipelineConfig cfg;  // baseline LRU: no tables needed

  {
    SCOPED_TRACE("VizPipeline");
    VizPipeline pipeline(
        grid,
        MemoryHierarchy::paper_testbed(
            grid.total_bytes(), 0.5, cfg.policy,
            [&grid](BlockId id) { return grid.block_bytes(id); }),
        cfg);
    expect_snapshot_of_run(pipeline.run(path));
  }
  {
    SCOPED_TRACE("VizPipeline playback");
    const usize timesteps = 2;
    VizPipeline pipeline(
        grid, make_temporal_hierarchy(grid, timesteps, 0.5, cfg.policy), cfg,
        nullptr, {}, nullptr, PlaybackSpec{timesteps, 4, false});
    const RunResult r = pipeline.run(path);
    expect_snapshot_of_run(r);
    // A time-varying run records its span timeline too: at least a fetch
    // and a render span per step.
    EXPECT_GE(r.timeline.size(), 2 * r.steps.size());
  }
  {
    SCOPED_TRACE("ParallelPipeline");
    ParallelPipeline pipeline(grid, partition_round_robin(grid, 2), cfg, 0.5);
    const ParallelRunResult r = pipeline.run(path);
    expect_snapshot_of_run(r);
    EXPECT_EQ(r.metrics.counter("pipeline.workers"), 2u);
    EXPECT_EQ(r.metrics.gauge("pipeline.fetch_speedup"), r.fetch_speedup);
  }
  {
    SCOPED_TRACE("LodPipeline");
    const MipPyramid pyramid = MipPyramid::build(
        rasterize(make_ball_volume({32, 32, 32})), {8, 8, 8}, 2);
    LodPipeline pipeline(pyramid, LodSelector{2.0, 1}, cfg.policy, 0.5);
    expect_snapshot_of_run(pipeline.run(path));
  }
}

}  // namespace
}  // namespace vizcache
