#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/workbench.hpp"
#include "util/error.hpp"

namespace vizcache {
namespace {

/// Small shared workbench so the suite stays fast; individual tests run
/// fresh pipelines (cold caches) against it.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkbenchSpec spec;
    spec.dataset = DatasetId::kBall3d;
    spec.scale = 0.08;  // ~82^3
    spec.target_blocks = 256;
    spec.omega = {8, 16, 3, 2.5, 3.5};
    bench_ = std::make_unique<Workbench>(spec);
  }
  static void TearDownTestSuite() { bench_.reset(); }

  static CameraPath path(usize n = 60, double deg = 5.0) {
    RandomPathSpec rp;
    rp.step_min_deg = deg - 1.0;
    rp.step_max_deg = deg + 1.0;
    rp.positions = n;
    return make_random_path(rp);
  }

  static std::unique_ptr<Workbench> bench_;
};

std::unique_ptr<Workbench> PipelineTest::bench_;

TEST_F(PipelineTest, StepResultsConsistent) {
  RunResult r = bench_->run_baseline(PolicyKind::kLru, path());
  ASSERT_EQ(r.steps.size(), 60u);
  SimSeconds io = 0, render = 0, total = 0;
  for (const StepResult& s : r.steps) {
    EXPECT_GT(s.visible_blocks, 0u);
    EXPECT_LE(s.fast_misses, s.visible_blocks);
    EXPECT_GE(s.io_time, 0.0);
    EXPECT_GT(s.render_time, 0.0);
    EXPECT_DOUBLE_EQ(s.total_time, s.io_time + s.render_time);
    io += s.io_time;
    render += s.render_time;
    total += s.total_time;
  }
  EXPECT_NEAR(r.io_time, io, 1e-9);
  EXPECT_NEAR(r.render_time, render, 1e-9);
  EXPECT_NEAR(r.total_time, total, 1e-9);
}

TEST_F(PipelineTest, BaselineHasNoPrefetchOrLookup) {
  RunResult r = bench_->run_baseline(PolicyKind::kFifo, path());
  EXPECT_DOUBLE_EQ(r.prefetch_time, 0.0);
  EXPECT_DOUBLE_EQ(r.lookup_time, 0.0);
  EXPECT_EQ(r.hierarchy.prefetch_requests, 0u);
}

TEST_F(PipelineTest, AppAwarePrefetchesAndOverlaps) {
  RunResult r = bench_->run_app_aware(path());
  EXPECT_GT(r.prefetch_time, 0.0);
  EXPECT_GT(r.lookup_time, 0.0);
  EXPECT_GT(r.hierarchy.prefetch_requests, 0u);
  for (const StepResult& s : r.steps) {
    EXPECT_DOUBLE_EQ(
        s.total_time,
        s.io_time + std::max(s.render_time, s.lookup_time + s.prefetch_time));
  }
}

/// A run's demand trace, the reference string Belady's MIN is fed, is
/// exactly each step's visible set (Algorithm 1 lines 9-14): one demand
/// request per visible block, each step's set the exact cone query of its
/// camera.
void expect_demand_is_visible_sets(const RunResult& r, const CameraPath& p,
                                   const BlockBoundsIndex& bounds) {
  ASSERT_EQ(r.steps.size(), p.size());
  u64 visible = 0;
  for (usize i = 0; i < p.size(); ++i) {
    EXPECT_EQ(r.steps[i].step, i + 1);  // steps are 1-based
    EXPECT_EQ(r.steps[i].visible_blocks, bounds.visible_blocks(p[i]).size());
    visible += r.steps[i].visible_blocks;
  }
  EXPECT_EQ(r.hierarchy.demand_requests, visible);
}

TEST_F(PipelineTest, TraceMatchesVisibleSets) {
  const CameraPath p = path();
  const BlockBoundsIndex bounds(bench_->grid());
  expect_demand_is_visible_sets(bench_->run_baseline(PolicyKind::kLru, p), p,
                                bounds);
}

TEST_F(PipelineTest, FirstStepAllMisses) {
  // Baselines start cold: every block of step 1 is a fast miss.
  RunResult r = bench_->run_baseline(PolicyKind::kLru, path());
  EXPECT_EQ(r.steps[0].fast_misses, r.steps[0].visible_blocks);
}

TEST_F(PipelineTest, PreloadingCutsFirstStepMisses) {
  // The app-aware run preloads important blocks; the ball's visible set
  // always contains important (interior) blocks, so step 1 must hit some.
  RunResult r = bench_->run_app_aware(path());
  EXPECT_LT(r.steps[0].fast_misses, r.steps[0].visible_blocks);
}

TEST_F(PipelineTest, MissRatesWithinBounds) {
  for (PolicyKind kind : {PolicyKind::kFifo, PolicyKind::kLru}) {
    RunResult r = bench_->run_baseline(kind, path());
    EXPECT_GE(r.fast_miss_rate, 0.0);
    EXPECT_LE(r.fast_miss_rate, 1.0);
    EXPECT_GE(r.total_miss_rate, 0.0);
    EXPECT_LE(r.total_miss_rate, 1.0);
  }
}

TEST_F(PipelineTest, DeterministicRuns) {
  CameraPath p = path();
  RunResult a = bench_->run_app_aware(p);
  RunResult b = bench_->run_app_aware(p);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.hierarchy, b.hierarchy);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_DOUBLE_EQ(a.fast_miss_rate, b.fast_miss_rate);
}

TEST_F(PipelineTest, SameDemandTraceAcrossPolicies) {
  // Demand accesses are the exact visible sets — identical for every mode,
  // which is why run_belady can build its trace from the path alone.
  const CameraPath p = path();
  const BlockBoundsIndex bounds(bench_->grid());
  for (const RunResult& r : {bench_->run_baseline(PolicyKind::kFifo, p),
                             bench_->run_baseline(PolicyKind::kLru, p),
                             bench_->run_app_aware(p)}) {
    expect_demand_is_visible_sets(r, p, bounds);
  }
}

TEST_F(PipelineTest, EmptyPathThrows) {
  EXPECT_THROW(bench_->run_baseline(PolicyKind::kLru, {}), InvalidArgument);
}

TEST_F(PipelineTest, AppAwareRequiresTables) {
  PipelineConfig cfg;
  cfg.app_aware = true;
  MemoryHierarchy h = MemoryHierarchy::paper_testbed(
      1000, 0.5, PolicyKind::kLru, [](BlockId) -> u64 { return 10; });
  EXPECT_THROW(VizPipeline(bench_->grid(), std::move(h), cfg), InvalidArgument);
}

TEST_F(PipelineTest, BeladyIsLowerBoundAmongDemandPolicies) {
  CameraPath p = path(60, 10.0);
  RunResult belady = bench_->run_belady(p);
  for (PolicyKind kind : {PolicyKind::kFifo, PolicyKind::kLru,
                          PolicyKind::kMru, PolicyKind::kClock}) {
    RunResult r = bench_->run_baseline(kind, p);
    EXPECT_LE(belady.fast_miss_rate, r.fast_miss_rate + 1e-9)
        << policy_kind_name(kind);
  }
}

TEST_F(PipelineTest, PrefetchBudgetRespectsFastCapacity) {
  RunResult r = bench_->run_app_aware(path());
  const u64 capacity = 0;  // recomputed below per-step via spec
  (void)capacity;
  // No step may prefetch more bytes than DRAM minus its visible set.
  double dram_fraction =
      bench_->spec().cache_ratio * bench_->spec().cache_ratio;
  auto dram_blocks = static_cast<usize>(
      dram_fraction * static_cast<double>(bench_->grid().block_count()));
  for (const StepResult& s : r.steps) {
    EXPECT_LE(s.prefetched + s.visible_blocks, dram_blocks + s.visible_blocks);
    EXPECT_LE(s.prefetched, dram_blocks);
  }
}

TEST_F(PipelineTest, TimelineShowsPrefetchOverlappingRender) {
  // Algorithm 1 line 22 made visible: the app-aware run's prefetch spans
  // must actually intersect render spans on the simulated clock, while the
  // baseline records a strictly serial fetch->render timeline.
  RunResult opt = bench_->run_app_aware(path());
  EXPECT_FALSE(opt.timeline.events_of(StepEvent::Kind::kLookup).empty());
  EXPECT_FALSE(opt.timeline.events_of(StepEvent::Kind::kPrefetch).empty());
  EXPECT_GT(opt.timeline.overlap_seconds(StepEvent::Kind::kPrefetch,
                                         StepEvent::Kind::kRender),
            0.0);

  RunResult lru = bench_->run_baseline(PolicyKind::kLru, path());
  EXPECT_TRUE(lru.timeline.events_of(StepEvent::Kind::kLookup).empty());
  EXPECT_TRUE(lru.timeline.events_of(StepEvent::Kind::kPrefetch).empty());
  EXPECT_DOUBLE_EQ(lru.timeline.overlap_seconds(StepEvent::Kind::kPrefetch,
                                                StepEvent::Kind::kRender),
                   0.0);
}

TEST_F(PipelineTest, TimelineSpansTheWholeRun) {
  RunResult r = bench_->run_app_aware(path());
  // One fetch and one render span per step; the last span ends exactly at
  // the simulated wall clock the aggregate result reports.
  EXPECT_EQ(r.timeline.events_of(StepEvent::Kind::kRender).size(),
            r.steps.size());
  EXPECT_NEAR(r.timeline.span_end(), r.total_time, 1e-9);
}

TEST_F(PipelineTest, MetricsSnapshotHasExpectedKeys) {
  RunResult r = bench_->run_app_aware(path());
  const MetricsSnapshot& m = r.metrics;
  // Cache layer (per-level), hierarchy demand/prefetch split, pipeline
  // aggregates — the same keys the CI snapshot check greps for.
  EXPECT_TRUE(m.has_counter("cache.dram.hits"));
  EXPECT_TRUE(m.has_counter("cache.ssd.misses"));
  EXPECT_TRUE(m.has_counter("hierarchy.demand.backing_reads"));
  EXPECT_TRUE(m.has_counter("hierarchy.prefetch.backing_reads"));
  EXPECT_TRUE(m.has_gauge("pipeline.total_seconds"));
  EXPECT_TRUE(m.has_histogram("pipeline.step.total_seconds"));

  // The snapshot mirrors the stats structs, which stay the source of truth.
  EXPECT_EQ(m.counter("hierarchy.demand.requests"),
            r.hierarchy.demand_requests);
  EXPECT_EQ(m.counter("hierarchy.prefetch.requests"),
            r.hierarchy.prefetch_requests);
  EXPECT_EQ(m.counter("hierarchy.demand.backing_reads"),
            r.hierarchy.demand_backing_reads);
  EXPECT_EQ(m.counter("pipeline.steps"), r.steps.size());
  EXPECT_NEAR(m.gauge("pipeline.total_seconds"), r.total_time, 1e-9);
  EXPECT_EQ(m.histogram("pipeline.step.total_seconds").count, r.steps.size());
}

TEST_F(PipelineTest, MetricsResetBetweenRuns) {
  // Two runs on one pipeline must not double-count: each run's snapshot is
  // written from that run's own record, so it carries that run's totals only.
  PipelineConfig cfg;
  cfg.policy = PolicyKind::kLru;
  VizPipeline pipeline(bench_->grid(), bench_->make_hierarchy(cfg.policy),
                       cfg);
  const CameraPath p = path();
  RunResult a = pipeline.run(p);
  RunResult b = pipeline.run(p);
  EXPECT_EQ(b.metrics.counter("pipeline.steps"), p.size());
  EXPECT_EQ(a.metrics.counter("hierarchy.demand.requests"),
            b.metrics.counter("hierarchy.demand.requests"));
  EXPECT_EQ(a.metrics.gauge("pipeline.total_seconds"),
            b.metrics.gauge("pipeline.total_seconds"));
}

}  // namespace
}  // namespace vizcache
