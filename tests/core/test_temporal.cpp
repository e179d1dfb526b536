// Time-varying playback through VizPipeline: a PlaybackSpec with more than
// one timestep keys each step at its timestep's (block, timestep) range.

#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "util/error.hpp"
#include "volume/datasets.hpp"

namespace vizcache {
namespace {

/// Shared fixture: a small time-varying climate stand-in with per-timestep
/// importance tables and a visibility table.
class TemporalTest : public ::testing::Test {
 protected:
  static constexpr usize kTimesteps = 3;

  static void SetUpTestSuite() {
    volume_ = std::make_unique<SyntheticVolume>(
        make_climate_volume({32, 28, 12}, 4, kTimesteps));
    grid_ = std::make_unique<BlockGrid>(
        BlockGrid::with_target_block_count(volume_->desc.dims, 128));
    store_ = std::make_unique<SyntheticBlockStore>(*volume_,
                                                   grid_->block_dims());

    importance_ = std::make_unique<std::vector<ImportanceTable>>();
    for (usize t = 0; t < kTimesteps; ++t) {
      importance_->push_back(ImportanceTable::build(*store_, 64, 1, t));
    }

    VisibilityTableSpec ts;
    ts.omega = {6, 12, 2, 2.5, 3.5};
    ts.vicinal_samples = 6;
    ts.view_angle_deg = 15.0;
    ts.radius_model = {15.0, 0.25, 1e-3};
    table_ = std::make_unique<VisibilityTable>(
        VisibilityTable::build(*grid_, ts));
  }

  static void TearDownTestSuite() {
    table_.reset();
    importance_.reset();
    store_.reset();
    grid_.reset();
    volume_.reset();
  }

  static VizPipeline make_pipeline(PipelineConfig cfg,
                                   PlaybackSpec playback) {
    return VizPipeline(*grid_,
                       make_temporal_hierarchy(*grid_, playback.timesteps, 0.5,
                                               cfg.policy),
                       cfg, table_.get(), *importance_, nullptr, playback);
  }

  static CameraPath path(usize n = 30) {
    RandomPathSpec rp;
    rp.step_min_deg = 3.0;
    rp.step_max_deg = 5.0;
    rp.positions = n;
    return make_random_path(rp);
  }

  static std::unique_ptr<SyntheticVolume> volume_;
  static std::unique_ptr<BlockGrid> grid_;
  static std::unique_ptr<SyntheticBlockStore> store_;
  static std::unique_ptr<std::vector<ImportanceTable>> importance_;
  static std::unique_ptr<VisibilityTable> table_;
};

std::unique_ptr<SyntheticVolume> TemporalTest::volume_;
std::unique_ptr<BlockGrid> TemporalTest::grid_;
std::unique_ptr<SyntheticBlockStore> TemporalTest::store_;
std::unique_ptr<std::vector<ImportanceTable>> TemporalTest::importance_;
std::unique_ptr<VisibilityTable> TemporalTest::table_;

TEST(TimeBlockKey, PackUnpackRoundTrip) {
  const usize nblocks = 100;
  for (BlockId id : {0u, 1u, 57u, 99u}) {
    for (usize t : {0u, 1u, 7u}) {
      BlockId key = TimeBlockKey::pack(id, t, nblocks);
      EXPECT_EQ(TimeBlockKey::spatial(key, nblocks), id);
      EXPECT_EQ(key - id, t * nblocks);
    }
  }
}

TEST(TimeBlockKey, DistinctAcrossTimesteps) {
  EXPECT_NE(TimeBlockKey::pack(5, 0, 100), TimeBlockKey::pack(5, 1, 100));
}

TEST_F(TemporalTest, TimestepScheduleClampAndLoop) {
  const PlaybackSpec pb{3, 4, false};
  EXPECT_EQ(pb.timestep_at(0), 0u);
  EXPECT_EQ(pb.timestep_at(3), 0u);
  EXPECT_EQ(pb.timestep_at(4), 1u);
  EXPECT_EQ(pb.timestep_at(11), 2u);
  EXPECT_EQ(pb.timestep_at(100), 2u);  // clamped

  const PlaybackSpec looped{3, 4, true};
  EXPECT_EQ(looped.timestep_at(12), 0u);  // wrapped
  EXPECT_EQ(looped.timestep_at(16), 1u);

  // The default playback is a static dataset: every step is timestep 0.
  EXPECT_EQ(PlaybackSpec{}.timestep_at(1000), 0u);
}

TEST_F(TemporalTest, TimeAdvanceCausesRefetch) {
  // With a static camera, a baseline must re-miss every block when the
  // timestep flips (same spatial block, new data).
  PipelineConfig cfg;
  cfg.app_aware = false;
  PlaybackSpec pb{kTimesteps, 10, false};
  VizPipeline p = make_pipeline(cfg, pb);

  CameraPath still(30, Camera({3, 0, 0}, 10.0));
  RunResult r = p.run(still);
  // Steps 1..10 are t=0; step 11 flips to t=1: all visible blocks miss.
  EXPECT_EQ(r.steps[10].fast_misses, r.steps[10].visible_blocks);
  EXPECT_EQ(r.steps[20].fast_misses, r.steps[20].visible_blocks);
  // Within a timestep, a still camera has zero misses after the first step.
  EXPECT_EQ(r.steps[5].fast_misses, 0u);
}

TEST_F(TemporalTest, TemporalPrefetchHidesTimestepFlips) {
  CameraPath p = path(30);
  PipelineConfig cfg;
  cfg.app_aware = true;

  PlaybackSpec without{kTimesteps, 10, false};
  without.temporal_prefetch = false;
  RunResult r_without = make_pipeline(cfg, without).run(p);

  PlaybackSpec with = without;
  with.temporal_prefetch = true;
  RunResult r_with = make_pipeline(cfg, with).run(p);

  // Prefetching next-timestep blocks during rendering must cut the misses
  // at the flip steps (indices 10 and 20).
  usize flips_without =
      r_without.steps[10].fast_misses + r_without.steps[20].fast_misses;
  usize flips_with =
      r_with.steps[10].fast_misses + r_with.steps[20].fast_misses;
  EXPECT_LT(flips_with, flips_without);
  EXPECT_LE(r_with.fast_miss_rate, r_without.fast_miss_rate + 1e-9);
}

TEST_F(TemporalTest, AppAwareBeatsBaselineOnPlayback) {
  CameraPath p = path(30);
  PlaybackSpec pb{kTimesteps, 10, false};

  PipelineConfig base;
  base.app_aware = false;
  base.policy = PolicyKind::kLru;
  RunResult lru = make_pipeline(base, pb).run(p);

  PipelineConfig aware;
  aware.app_aware = true;
  RunResult opt = make_pipeline(aware, pb).run(p);

  // Prefetching cannot lose on demand I/O or misses. (Whether *total* time
  // wins depends on render time being long enough to hide the prefetch —
  // the realistic-scale bench_ablation_temporal demonstrates that case.)
  EXPECT_LT(opt.io_time, lru.io_time);
  EXPECT_LE(opt.fast_miss_rate, lru.fast_miss_rate + 1e-9);
}

TEST_F(TemporalTest, DeterministicRuns) {
  CameraPath p = path(20);
  PlaybackSpec pb{kTimesteps, 5, false};
  PipelineConfig cfg;
  cfg.app_aware = true;
  RunResult a = make_pipeline(cfg, pb).run(p);
  RunResult b = make_pipeline(cfg, pb).run(p);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.hierarchy, b.hierarchy);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
}

TEST_F(TemporalTest, NewTimestepMissesEveryVisibleBlock) {
  // Keys are per (block, timestep): when playback moves to a new timestep,
  // none of its blocks has been staged yet, so a baseline misses fast memory
  // on every visible block. The same path held at one timestep reuses the
  // previous view's blocks.
  const CameraPath p = path(30);
  PipelineConfig cfg;
  const RunResult playing =
      make_pipeline(cfg, PlaybackSpec{kTimesteps, 10, false}).run(p);
  const RunResult held =
      make_pipeline(cfg, PlaybackSpec{kTimesteps, p.size(), false}).run(p);
  for (usize i : {10u, 20u}) {
    SCOPED_TRACE(testing::Message() << "path index " << i);
    EXPECT_EQ(playing.steps[i].fast_misses, playing.steps[i].visible_blocks);
    EXPECT_LT(held.steps[i].fast_misses, held.steps[i].visible_blocks);
  }
}

TEST_F(TemporalTest, InvalidConfigsThrow) {
  PipelineConfig cfg;
  cfg.app_aware = true;
  PlaybackSpec pb{kTimesteps, 10, false};
  auto hierarchy = [&] {
    return make_temporal_hierarchy(*grid_, kTimesteps, 0.5, cfg.policy);
  };
  // Missing importance tables.
  EXPECT_THROW(VizPipeline(*grid_, hierarchy(), cfg, table_.get(), {},
                           nullptr, pb),
               InvalidArgument);
  // Wrong importance table count.
  std::vector<ImportanceTable> wrong;
  wrong.push_back((*importance_)[0]);
  EXPECT_THROW(VizPipeline(*grid_, hierarchy(), cfg, table_.get(), wrong,
                           nullptr, pb),
               InvalidArgument);
  // Zero timesteps.
  PipelineConfig plain;
  EXPECT_THROW(VizPipeline(*grid_,
                           make_temporal_hierarchy(*grid_, 1, 0.5,
                                                   plain.policy),
                           plain, nullptr, {}, nullptr,
                           PlaybackSpec{0, 1, false}),
               InvalidArgument);
  // Zero steps per timestep.
  EXPECT_THROW(VizPipeline(*grid_, hierarchy(), plain, nullptr, {}, nullptr,
                           PlaybackSpec{kTimesteps, 0, false}),
               InvalidArgument);
  // A (block, timestep) key space that overflows BlockId.
  const usize too_many = static_cast<usize>(kInvalidBlock) /
                             grid_->block_count() + 1;
  EXPECT_THROW(VizPipeline(*grid_, hierarchy(), plain, nullptr, {}, nullptr,
                           PlaybackSpec{too_many, 1, false}),
               InvalidArgument);
}

TEST_F(TemporalTest, QueryScheduleOnPlaybackThrows) {
  // The metadata table describes one static field, so a query-driven run
  // must not span timesteps.
  const BlockMetadataTable metadata = BlockMetadataTable::build(*store_, 1);
  const QuerySchedule schedule({{0, RegionQuery::range(0, 0.0f, 1.0f)}});
  PipelineConfig cfg;
  VizPipeline playing(*grid_,
                      make_temporal_hierarchy(*grid_, kTimesteps, 0.5,
                                              cfg.policy),
                      cfg, nullptr, {}, &metadata,
                      PlaybackSpec{kTimesteps, 10, false});
  EXPECT_THROW(playing.run(path(5), &schedule), InvalidArgument);

  VizPipeline still(*grid_, make_temporal_hierarchy(*grid_, 1, 0.5, cfg.policy),
                    cfg, nullptr, {}, &metadata);
  EXPECT_EQ(still.run(path(5), &schedule).steps.size(), 5u);
}

}  // namespace
}  // namespace vizcache
