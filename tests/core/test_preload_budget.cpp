// Budget semantics shared by every pipeline (Algorithm 1 lines 7 and 22).
// Preload is skip-and-continue: a block too large for the remaining
// fast-memory budget must not shadow a smaller, less-important block that
// still fits. Prefetch is the opposite: the first candidate that overflows
// the DRAM budget ends the pass (per worker in ParallelPipeline).
// Regressions: VizPipeline, static and time-varying, once stopped preloading
// at the first over-budget block, and ParallelPipeline once kept prefetching
// past an overflow, so the simulators disagreed on identical inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/parallel_pipeline.hpp"
#include "core/pipeline.hpp"

namespace vizcache {
namespace {

// Heterogeneous block sizes via a partial edge block: volume 20x4x4 split
// into 6x4x4 bricks -> blocks 0..2 are 384 bytes, block 3 is 128 bytes
// (dataset 1280 bytes). With cache_ratio 0.5 the DRAM level holds 320
// bytes: block 0 (the most important) cannot fit, block 3 can.
constexpr double kSigma = 2.0;

BlockGrid make_grid() { return BlockGrid({20, 4, 4}, {6, 4, 4}); }

ImportanceTable make_importance() {
  // Ranking: 0 (10 bits), 3 (9 bits), then 1 and 2 below sigma.
  return ImportanceTable::from_scores({10.0, 1.0, 1.0, 9.0});
}

VisibilityTable make_table(const BlockGrid& grid) {
  VisibilityTableSpec spec;
  spec.omega = {4, 8, 2, 5.0, 7.0};
  spec.vicinal_samples = 2;
  spec.view_angle_deg = 60.0;
  return VisibilityTable::build(grid, spec);
}

PipelineConfig make_config() {
  PipelineConfig cfg;
  cfg.app_aware = true;
  cfg.sigma_bits = kSigma;
  return cfg;
}

// Wide-angle camera far out on +z: all four blocks are visible, so step 1's
// fast-miss count directly reveals which blocks the preload staged.
CameraPath make_path() { return {Camera({0.0, 0.0, 6.0}, 60.0)}; }

TEST(PreloadBudget, SequentialSkipsOversizeBlockAndKeepsFilling) {
  BlockGrid grid = make_grid();
  ImportanceTable importance = make_importance();
  VisibilityTable table = make_table(grid);
  MemoryHierarchy h = MemoryHierarchy::paper_testbed(
      1280, 0.5, PolicyKind::kLru,
      [g = &grid](BlockId id) { return g->block_bytes(id); });
  ASSERT_EQ(h.cache(0).capacity_bytes(), 320u);

  VizPipeline pipe(grid, std::move(h), make_config(), &table, {&importance, 1});
  RunResult r = pipe.run(make_path());
  ASSERT_EQ(r.steps[0].visible_blocks, 4u);
  // Block 0 (384 B) overflows the 320 B budget and is skipped; block 3
  // (128 B) is preloaded. Under the old `break` nothing was preloaded and
  // all four visible blocks missed.
  EXPECT_EQ(r.steps[0].fast_misses, 3u);
}

TEST(PreloadBudget, ParallelAgreesWithSequential) {
  BlockGrid grid = make_grid();
  ImportanceTable importance = make_importance();
  VisibilityTable table = make_table(grid);

  // One worker: the parallel pipeline's preload must behave exactly like
  // the sequential one (same budget, same skip-and-continue semantics).
  Partition partition = partition_round_robin(grid, 1);
  ParallelPipeline par(grid, std::move(partition), make_config(), 0.5, &table,
                       &importance);
  ASSERT_EQ(par.worker_hierarchy(0).cache(0).capacity_bytes(), 320u);
  ParallelRunResult pr = par.run(make_path());

  MemoryHierarchy h = MemoryHierarchy::paper_testbed(
      1280, 0.5, PolicyKind::kLru,
      [g = &grid](BlockId id) { return g->block_bytes(id); });
  VizPipeline pipe(grid, std::move(h), make_config(), &table, {&importance, 1});
  RunResult sr = pipe.run(make_path());

  ASSERT_EQ(pr.steps[0].visible_blocks, sr.steps[0].visible_blocks);
  EXPECT_EQ(pr.steps[0].fast_misses, sr.steps[0].fast_misses);
  EXPECT_EQ(pr.steps[0].fast_misses, 3u);
}

TEST(PreloadBudget, TemporalSkipsOversizeBlockAndKeepsFilling) {
  // A two-timestep playback preloads timestep 0's table into the same
  // 320 B DRAM level (the hierarchy is sized for one timestep's bytes).
  BlockGrid grid = make_grid();
  const std::vector<ImportanceTable> importance{make_importance(),
                                                make_importance()};
  VisibilityTable table = make_table(grid);
  MemoryHierarchy h = make_temporal_hierarchy(grid, 1, 0.5, PolicyKind::kLru);
  ASSERT_EQ(h.cache(0).capacity_bytes(), 320u);

  VizPipeline pipe(grid, std::move(h), make_config(), &table, importance,
                   nullptr, PlaybackSpec{2, 1, false});
  RunResult r = pipe.run(make_path());
  ASSERT_EQ(r.steps[0].visible_blocks, 4u);
  // Same as the static run: block 3 is preloaded past block 0.
  EXPECT_EQ(r.steps[0].fast_misses, 3u);
}

// A 1-degree camera on +z sees only block 1 (384 B). With cache_ratio
// sqrt(0.5) the DRAM level holds 639 bytes, which leaves a 255 B prefetch
// budget: block 0 (384 B, most important) overflows it, block 3 (128 B)
// would fit. Preload is off so both are prefetch candidates.
TEST(PrefetchBudget, OverflowEndsTheSequentialAndEachWorkersPass) {
  BlockGrid grid = make_grid();
  ImportanceTable importance = make_importance();
  VisibilityTable table = make_table(grid);
  PipelineConfig cfg = make_config();
  cfg.preload_important = false;
  const double ratio = std::sqrt(0.5);
  const CameraPath path{Camera({0.0, 0.0, 6.0}, 1.0)};
  const std::vector<BlockId>& predicted = table.query(path[0].position());
  ASSERT_NE(std::find(predicted.begin(), predicted.end(), 0u), predicted.end());
  ASSERT_NE(std::find(predicted.begin(), predicted.end(), 3u), predicted.end());

  VizPipeline seq(grid,
                  MemoryHierarchy::paper_testbed(
                      1280, ratio, PolicyKind::kLru,
                      [g = &grid](BlockId id) { return g->block_bytes(id); }),
                  cfg, &table, {&importance, 1});
  ASSERT_EQ(seq.hierarchy().cache(0).capacity_bytes(), 639u);
  RunResult sr = seq.run(path);
  ASSERT_EQ(sr.steps[0].visible_blocks, 1u);
  EXPECT_EQ(sr.steps[0].prefetched, 0u);

  ParallelPipeline par(grid, partition_round_robin(grid, 1), cfg, ratio,
                       &table, &importance);
  ParallelRunResult pr = par.run(path);
  ASSERT_EQ(pr.steps[0].visible_blocks, 1u);
  EXPECT_EQ(pr.steps[0].prefetched, 0u);
  EXPECT_EQ(pr.steps[0].prefetch_time, sr.steps[0].prefetch_time);
}

}  // namespace
}  // namespace vizcache
