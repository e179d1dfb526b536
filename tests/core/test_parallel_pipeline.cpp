#include "core/parallel_pipeline.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/workbench.hpp"
#include "util/error.hpp"

namespace vizcache {
namespace {

/// Shared workbench supplying grid/tables; parallel pipelines are built per
/// test on top of it.
class ParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkbenchSpec spec;
    spec.dataset = DatasetId::kBall3d;
    spec.scale = 0.08;
    spec.target_blocks = 256;
    spec.omega = {8, 16, 3, 2.5, 3.5};
    bench_ = std::make_unique<Workbench>(spec);
  }
  static void TearDownTestSuite() { bench_.reset(); }

  static ParallelPipeline make(usize workers, PartitionStrategy strategy,
                               bool app_aware) {
    PipelineConfig cfg;
    cfg.app_aware = app_aware;
    cfg.sigma_bits = bench_->sigma_bits();
    Partition part = make_partition(strategy, bench_->grid(),
                                    bench_->importance(), workers);
    return ParallelPipeline(bench_->grid(), std::move(part), cfg, 0.5,
                            app_aware ? &bench_->table() : nullptr,
                            app_aware ? &bench_->importance() : nullptr);
  }

  static CameraPath path(usize n = 50) {
    RandomPathSpec rp;
    rp.step_min_deg = 4.0;
    rp.step_max_deg = 6.0;
    rp.positions = n;
    return make_random_path(rp);
  }

  static std::unique_ptr<Workbench> bench_;
};

std::unique_ptr<Workbench> ParallelTest::bench_;

TEST_F(ParallelTest, SingleWorkerMatchesSequentialShape) {
  ParallelPipeline p = make(1, PartitionStrategy::kRoundRobin, false);
  ParallelRunResult r = p.run(path());
  ASSERT_EQ(r.workers.size(), 1u);
  EXPECT_NEAR(r.fetch_speedup, 1.0, 1e-9);
  // One worker does all the demand fetching.
  usize visible_total = 0;
  for (const StepResult& s : r.steps) visible_total += s.visible_blocks;
  EXPECT_EQ(r.workers[0].blocks_fetched, visible_total);
}

TEST_F(ParallelTest, MoreWorkersReduceMakespan) {
  CameraPath p = path();
  ParallelRunResult one = make(1, PartitionStrategy::kImportance, false).run(p);
  ParallelRunResult four = make(4, PartitionStrategy::kImportance, false).run(p);
  EXPECT_LT(four.io_time, one.io_time);
  EXPECT_GT(four.fetch_speedup, 1.5);
}

TEST_F(ParallelTest, SpeedupBoundedByWorkerCount) {
  CameraPath p = path();
  for (usize workers : {2u, 4u, 8u}) {
    ParallelRunResult r =
        make(workers, PartitionStrategy::kImportance, false).run(p);
    EXPECT_LE(r.fetch_speedup, static_cast<double>(workers) + 1e-9);
    EXPECT_GE(r.fetch_speedup, 1.0);
  }
}

TEST_F(ParallelTest, ImportancePartitionBeatsSlabsOnMakespan) {
  // The view cone concentrates on a region; slab partitions leave most
  // workers idle while one does the fetching. Importance-balanced spreads
  // the interesting blocks.
  CameraPath p = path();
  ParallelRunResult slabs =
      make(4, PartitionStrategy::kSpatialSlabs, false).run(p);
  ParallelRunResult balanced =
      make(4, PartitionStrategy::kImportance, false).run(p);
  EXPECT_LE(balanced.io_time, slabs.io_time * 1.05);
  EXPECT_GE(balanced.fetch_speedup, slabs.fetch_speedup * 0.95);
}

TEST_F(ParallelTest, AppAwareParallelRunWorks) {
  ParallelPipeline p = make(4, PartitionStrategy::kImportance, true);
  ParallelRunResult r = p.run(path());
  EXPECT_GT(r.prefetch_time, 0.0);
  usize prefetched = 0;
  for (const StepResult& s : r.steps) prefetched += s.prefetched;
  EXPECT_GT(prefetched, 0u);
  // Overlap accounting: total <= io + render + prefetch + lookup sums.
  EXPECT_LE(r.total_time,
            r.io_time + r.render_time + r.prefetch_time + 1.0);
}

TEST_F(ParallelTest, DeterministicRuns) {
  CameraPath p = path(30);
  ParallelRunResult a = make(4, PartitionStrategy::kImportance, true).run(p);
  ParallelRunResult b = make(4, PartitionStrategy::kImportance, true).run(p);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_DOUBLE_EQ(a.fast_miss_rate, b.fast_miss_rate);
}

TEST_F(ParallelTest, WorkerStatsAccountAllFetches) {
  ParallelRunResult r = make(4, PartitionStrategy::kRoundRobin, false).run(path());
  usize visible_total = 0;
  for (const StepResult& s : r.steps) visible_total += s.visible_blocks;
  u64 fetched = 0;
  for (const WorkerStats& w : r.workers) fetched += w.blocks_fetched;
  EXPECT_EQ(fetched, visible_total);
}

TEST_F(ParallelTest, MismatchedPartitionThrows) {
  PipelineConfig cfg;
  Partition tiny({0, 0, 1}, 2);  // 3 blocks, grid has 256+
  EXPECT_THROW(ParallelPipeline(bench_->grid(), std::move(tiny), cfg, 0.5),
               InvalidArgument);
}

TEST_F(ParallelTest, TimelineHasPerWorkerLanesAndOverlap) {
  ParallelPipeline p = make(4, PartitionStrategy::kImportance, true);
  ParallelRunResult r = p.run(path());
  // Every worker renders every step in its own lane of the timeline.
  auto renders = r.timeline.events_of(StepEvent::Kind::kRender);
  EXPECT_EQ(renders.size(), r.steps.size() * 4u);
  bool saw_last_worker = false;
  for (const StepEvent& e : renders) saw_last_worker |= (e.worker == 3);
  EXPECT_TRUE(saw_last_worker);
  // App-aware workers prefetch while rendering (same-worker overlap only).
  EXPECT_GT(r.timeline.overlap_seconds(StepEvent::Kind::kPrefetch,
                                       StepEvent::Kind::kRender),
            0.0);
  // One snapshot: the hierarchy counters are the workers' stats, summed.
  EXPECT_EQ(r.metrics.counter("pipeline.workers"), 4u);
  EXPECT_EQ(r.metrics.counter("pipeline.steps"), r.steps.size());
  EXPECT_TRUE(r.metrics.has_counter("hierarchy.prefetch.requests"));
  u64 demand = 0, dram_hits = 0;
  for (usize w = 0; w < 4; ++w) {
    const HierarchyStats s = p.worker_hierarchy(w).stats();
    demand += s.demand_requests;
    dram_hits += s.level[0].hits;
  }
  EXPECT_GT(demand, 0u);
  EXPECT_EQ(r.metrics.counter("hierarchy.demand.requests"), demand);
  EXPECT_EQ(r.metrics.counter("cache.dram.hits"), dram_hits);
}

TEST_F(ParallelTest, AppAwareNeedsTables) {
  PipelineConfig cfg;
  cfg.app_aware = true;
  Partition part = partition_round_robin(bench_->grid(), 2);
  EXPECT_THROW(ParallelPipeline(bench_->grid(), std::move(part), cfg, 0.5),
               InvalidArgument);
}

}  // namespace
}  // namespace vizcache
