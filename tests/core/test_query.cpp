#include "core/query.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/workbench.hpp"
#include "geom/spherical.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

struct QueryWorld {
  SyntheticBlockStore store;
  BlockBoundsIndex bounds;
  BlockMetadataTable metadata;

  QueryWorld()
      : store(make_flame_volume("f", {32, 32, 32}), {8, 8, 8}),
        bounds(store.grid()),
        metadata(BlockMetadataTable::build(store)) {}
};

TEST(RegionQuery, EmptyMatchesEverything) {
  QueryWorld w;
  RegionQuery q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.candidate_blocks(w.metadata).size(),
            w.store.grid().block_count());
}

TEST(RegionQuery, IsoSurfaceBand) {
  QueryWorld w;
  RegionQuery q = RegionQuery::iso_surface(0, 0.5f, 0.05f);
  ASSERT_EQ(q.clauses().size(), 1u);
  EXPECT_FLOAT_EQ(q.clauses()[0].lo, 0.45f);
  EXPECT_FLOAT_EQ(q.clauses()[0].hi, 0.55f);
  auto blocks = q.candidate_blocks(w.metadata);
  EXPECT_GT(blocks.size(), 0u);
  EXPECT_LT(blocks.size(), w.store.grid().block_count());
}

TEST(RegionQuery, ConjunctionNarrows) {
  QueryWorld w;
  RegionQuery broad = RegionQuery::range(0, 0.2f, 1.0f);
  RegionQuery narrow = RegionQuery::range(0, 0.2f, 1.0f);
  narrow.and_range(0, 0.8f, 1.0f);
  auto b = broad.candidate_blocks(w.metadata);
  auto n = narrow.candidate_blocks(w.metadata);
  EXPECT_LE(n.size(), b.size());
  // Conjunction result is a subset.
  EXPECT_TRUE(std::includes(b.begin(), b.end(), n.begin(), n.end()));
}

TEST(RegionQuery, MatchesActualContent) {
  // Soundness through the query layer: blocks that truly contain matching
  // voxels always pass.
  QueryWorld w;
  RegionQuery q = RegionQuery::range(0, 0.9f, 1.0f);
  for (BlockId id = 0; id < w.store.grid().block_count(); ++id) {
    auto payload = w.store.read_block(id, 0, 0);
    bool contains = std::any_of(payload.begin(), payload.end(),
                                [](float v) { return v >= 0.9f && v <= 1.0f; });
    if (contains) {
      EXPECT_TRUE(q.may_match(w.metadata, id));
    }
  }
}

TEST(RegionQuery, ToStringReadable) {
  RegionQuery q = RegionQuery::range(1, 0.25f, 0.5f);
  q.and_range(2, 0.0f, 0.1f);
  std::string s = q.to_string();
  EXPECT_NE(s.find("v1"), std::string::npos);
  EXPECT_NE(s.find("AND"), std::string::npos);
  EXPECT_EQ(RegionQuery().to_string(), "match-all");
}

TEST(RegionQuery, InvalidRangesThrow) {
  EXPECT_THROW(RegionQuery::range(0, 0.6f, 0.4f), InvalidArgument);
  EXPECT_THROW(RegionQuery::iso_surface(0, 0.5f, -0.1f), InvalidArgument);
  RegionQuery q;
  EXPECT_THROW(q.and_range(0, 1.0f, 0.0f), InvalidArgument);
}

TEST(QueryVisibleBlocks, IntersectionOfViewAndQuery) {
  // Oracle: the exhaustive per-block scan, every block's AABB against the
  // view cone AND the query's metadata test, ids ascending.
  QueryWorld w;
  const BlockGrid& grid = w.store.grid();
  const RegionQuery queries[] = {RegionQuery::range(0, 0.8f, 1.0f),
                                 RegionQuery::iso_surface(0, 0.5f, 0.05f),
                                 RegionQuery()};
  Rng rng(27);
  for (int i = 0; i < 200; ++i) {
    const Vec3 pos = direction_from_angles(rng.uniform(0.05, 3.09),
                                           rng.uniform(0.0, 6.28)) *
                     rng.uniform(1.5, 4.0);
    const Camera cam(pos, rng.uniform(5.0, 60.0));
    const ConeFrustum frustum(cam);
    for (const RegionQuery& q : queries) {
      std::vector<BlockId> expected;
      for (BlockId id = 0; id < grid.block_count(); ++id) {
        if (frustum.intersects_block(grid.block_bounds(id)) &&
            q.may_match(w.metadata, id)) {
          expected.push_back(id);
        }
      }
      ASSERT_EQ(query_visible_blocks(cam, w.bounds, w.metadata, q), expected)
          << "camera " << i << ", query " << q.to_string();
    }
  }
}

TEST(QuerySchedule, DefaultIsMatchAll) {
  QuerySchedule sched;
  EXPECT_TRUE(sched.active_at(0).empty());
  EXPECT_TRUE(sched.active_at(100).empty());
}

TEST(QuerySchedule, ChangesActivateAtTheirStep) {
  QuerySchedule sched({{10, RegionQuery::range(0, 0.5f, 1.0f)},
                       {20, RegionQuery::range(0, 0.0f, 0.5f)}});
  EXPECT_TRUE(sched.active_at(9).empty());
  EXPECT_FLOAT_EQ(sched.active_at(10).clauses()[0].lo, 0.5f);
  EXPECT_FLOAT_EQ(sched.active_at(19).clauses()[0].lo, 0.5f);
  EXPECT_FLOAT_EQ(sched.active_at(20).clauses()[0].hi, 0.5f);
  EXPECT_FLOAT_EQ(sched.active_at(999).clauses()[0].hi, 0.5f);
}

TEST(QuerySchedule, UnsortedInputSorted) {
  QuerySchedule sched({{20, RegionQuery::range(0, 0.0f, 0.1f)},
                       {5, RegionQuery::range(0, 0.9f, 1.0f)}});
  EXPECT_FLOAT_EQ(sched.active_at(6).clauses()[0].lo, 0.9f);
}

TEST(QueryPipeline, QueryShrinksWorkingSet) {
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kLiftedMixFrac;
  spec.scale = 0.08;
  spec.target_blocks = 256;
  spec.omega = {6, 12, 2, 2.5, 3.5};
  Workbench wb(spec);

  RandomPathSpec rp;
  rp.positions = 40;
  CameraPath path = make_random_path(rp);

  QuerySchedule iso({{0, RegionQuery::iso_surface(0, 0.5f, 0.05f)}});
  RunResult full = wb.run_baseline(PolicyKind::kLru, path);
  RunResult narrowed = wb.run_baseline(PolicyKind::kLru, path, &iso);
  usize full_blocks = 0, narrowed_blocks = 0;
  for (const auto& s : full.steps) full_blocks += s.visible_blocks;
  for (const auto& s : narrowed.steps) narrowed_blocks += s.visible_blocks;
  EXPECT_LT(narrowed_blocks, full_blocks);
  EXPECT_LE(narrowed.io_time, full.io_time + 1e-9);
}

TEST(QueryPipeline, MidPathQueryChangeShiftsAccesses) {
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kLiftedMixFrac;
  spec.scale = 0.08;
  spec.target_blocks = 256;
  spec.omega = {6, 12, 2, 2.5, 3.5};
  Workbench wb(spec);

  RandomPathSpec rp;
  rp.positions = 40;
  rp.step_min_deg = 1.0;
  rp.step_max_deg = 2.0;
  CameraPath path = make_random_path(rp);

  // Transfer-function retune at step 20: ambient band -> flame core band.
  QuerySchedule sched({{0, RegionQuery::range(0, 0.0f, 0.2f)},
                       {20, RegionQuery::range(0, 0.8f, 1.0f)}});
  RunResult r = wb.run_app_aware(path, &sched);
  ASSERT_EQ(r.steps.size(), 40u);
  // The change must actually alter the demand pattern: compare average
  // working-set between the two phases (the flame core is compact).
  double phase1 = 0, phase2 = 0;
  for (usize i = 0; i < 20; ++i) phase1 += static_cast<double>(r.steps[i].visible_blocks);
  for (usize i = 20; i < 40; ++i) phase2 += static_cast<double>(r.steps[i].visible_blocks);
  EXPECT_NE(phase1, phase2);
}

TEST(QueryPipeline, ScheduleWithoutMetadataThrows) {
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.06;
  spec.target_blocks = 64;
  spec.omega = {4, 8, 2, 2.5, 3.5};
  Workbench wb(spec);

  PipelineConfig cfg;
  MemoryHierarchy h = MemoryHierarchy::paper_testbed(
      wb.dataset_bytes(), 0.5, PolicyKind::kLru,
      [g = &wb.grid()](BlockId id) { return g->block_bytes(id); });
  VizPipeline pipeline(wb.grid(), std::move(h), cfg);  // no metadata
  QuerySchedule sched({{0, RegionQuery::range(0, 0.0f, 1.0f)}});
  RandomPathSpec rp;
  rp.positions = 5;
  EXPECT_THROW(pipeline.run(make_random_path(rp), &sched), InvalidArgument);
}

}  // namespace
}  // namespace vizcache
