#include "service/block_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/workbench.hpp"
#include "util/error.hpp"

namespace vizcache {
namespace {

/// Small shared workbench (same shape as the pipeline suite's) so building
/// T_visible/T_important happens once; each test opens fresh services.
class BlockServiceTest : public ::testing::Test {
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

  static MemoryHierarchy make_hierarchy(double fraction = 1.0) {
    const BlockGrid* g = &bench_->grid();
    const u64 bytes =
        std::max<u64>(u64{1}, static_cast<u64>(
                                  static_cast<double>(bench_->dataset_bytes()) *
                                  fraction));
    return MemoryHierarchy::paper_testbed(
        bytes, bench_->spec().cache_ratio, PolicyKind::kLru,
        [g](BlockId id) { return g->block_bytes(id); });
  }

  static ServiceConfig make_config() {
    ServiceConfig cfg;
    cfg.app_aware = true;
    cfg.sigma_bits = bench_->sigma_bits();
    cfg.render_model = bench_->spec().render_model;
    cfg.lookup_cost = bench_->spec().lookup_cost;
    return cfg;
  }

  /// Heap-allocated: BlockService owns mutexes and is non-movable.
  static std::unique_ptr<BlockService> make_service(ServiceConfig cfg) {
    return std::make_unique<BlockService>(bench_->grid(), make_hierarchy(),
                                          cfg, &bench_->table(),
                                          &bench_->importance());
  }

  static CameraPath path(usize n = 40, u64 seed = 1234) {
    RandomPathSpec rp;
    rp.step_min_deg = 4.0;
    rp.step_max_deg = 6.0;
    rp.positions = n;
    rp.seed = seed;
    return make_random_path(rp);
  }

  static std::unique_ptr<Workbench> bench_;
};

std::unique_ptr<Workbench> BlockServiceTest::bench_;

TEST_F(BlockServiceTest, SessionLifecycleAndStepAccounting) {
  auto svc = make_service(make_config());
  const auto id = svc->open_session();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(svc->active_sessions(), 1u);

  const CameraPath p = path();
  u64 demand = 0, misses = 0, prefetched = 0;
  SimSeconds sim = 0.0;
  for (usize i = 0; i < p.size(); ++i) {
    const SessionStepResult sr = svc->step(*id, p[i]);
    EXPECT_EQ(sr.step, i + 1);
    EXPECT_GT(sr.visible_blocks, 0u);
    EXPECT_LE(sr.fast_misses, sr.visible_blocks);
    EXPECT_DOUBLE_EQ(sr.total_time,
                     sr.io_time + std::max(sr.render_time,
                                           sr.lookup_time + sr.prefetch_time));
    demand += sr.visible_blocks;
    misses += sr.fast_misses;
    prefetched += sr.prefetched;
    sim += sr.total_time;
  }
  EXPECT_GT(prefetched, 0u);  // the predictor is wired through

  const SessionSummary sum = svc->close_session(*id);
  EXPECT_EQ(sum.id, *id);
  EXPECT_EQ(sum.steps, p.size());
  EXPECT_EQ(sum.demand_requests, demand);
  EXPECT_EQ(sum.fast_misses, misses);
  EXPECT_EQ(sum.prefetched, prefetched);
  EXPECT_NEAR(sum.sim_time, sim, 1e-9);
  EXPECT_EQ(svc->active_sessions(), 0u);

  EXPECT_EQ(svc->metrics().counter("service.steps").value(), p.size());
  EXPECT_EQ(svc->metrics().counter("service.demand.requests").value(), demand);
  EXPECT_EQ(svc->metrics().counter("service.sessions.opened").value(), 1u);
  EXPECT_EQ(svc->metrics().counter("service.sessions.closed").value(), 1u);
}

// The registry keeps no copy of the shared hierarchy's or the coalescer's
// counters: its snapshot reads their stats structs when taken. Paced, so
// every miss claims its read and the coalescer counters move.
TEST_F(BlockServiceTest, SnapshotReportsHierarchyAndCoalescerStats) {
  ServiceConfig cfg = make_config();
  cfg.leader_pace_seconds = 1e-6;
  auto svc = make_service(cfg);
  const auto id = svc->open_session();
  ASSERT_TRUE(id.has_value());
  for (const Camera& cam : path(20)) svc->step(*id, cam);
  svc->close_session(*id);

  const MetricsSnapshot m = svc->metrics().snapshot();
  const HierarchyStats h = svc->hierarchy().stats();
  const RequestCoalescer::Stats c = svc->hierarchy().coalescer().stats();
  ASSERT_GT(c.claims, 0u);
  EXPECT_EQ(m.counter("service.hierarchy.coalescer.claims"), c.claims);
  EXPECT_EQ(m.counter("service.hierarchy.coalescer.suppressed"), c.suppressed);
  EXPECT_EQ(m.counter("service.hierarchy.coalescer.completions"),
            c.completions);
  EXPECT_EQ(m.counter("service.hierarchy.coalescer.coalesced_waits"),
            c.coalesced_waits);

  EXPECT_EQ(m.counter("service.hierarchy.demand.requests"), h.demand_requests);
  EXPECT_EQ(m.counter("service.hierarchy.prefetch.requests"),
            h.prefetch_requests);
  EXPECT_EQ(m.counter("service.hierarchy.demand.backing_reads"),
            h.demand_backing_reads);
  EXPECT_EQ(m.counter("service.hierarchy.demand.backing_bytes"),
            h.demand_backing_bytes);
  EXPECT_EQ(m.counter("service.hierarchy.prefetch.backing_reads"),
            h.prefetch_backing_reads);
  EXPECT_EQ(m.counter("service.hierarchy.prefetch.backing_bytes"),
            h.prefetch_backing_bytes);
  EXPECT_EQ(m.gauge("service.hierarchy.demand.io_seconds"), h.demand_io_time);
  EXPECT_EQ(m.gauge("service.hierarchy.prefetch.io_seconds"), h.prefetch_time);
  ASSERT_EQ(h.level.size(), 2u);
  for (usize i = 0; i < h.level.size(); ++i) {
    const std::string level = i == 0 ? "cache.dram" : "cache.ssd";
    EXPECT_EQ(m.counter(level + ".hits"), h.level[i].hits);
    EXPECT_EQ(m.counter(level + ".misses"), h.level[i].misses);
    EXPECT_EQ(m.counter(level + ".insertions"), h.level[i].insertions);
    EXPECT_EQ(m.counter(level + ".evictions"), h.level[i].evictions);
    EXPECT_EQ(m.counter(level + ".bypasses"), h.level[i].bypasses);
  }
  // The service's own instruments count the same demand.
  EXPECT_EQ(m.counter("service.demand.requests"), h.demand_requests);
}

// Regression: the id counter is a u32, and open_session used to ignore the
// emplace result — after the counter wrapped, a fresh session could silently
// alias a still-open long-lived session's state. Live ids must be skipped.
TEST_F(BlockServiceTest, SessionIdCounterWrapSkipsLiveSessions) {
  auto svc = make_service(make_config());
  const auto keeper = svc->open_session();  // long-lived session, id 1
  ASSERT_TRUE(keeper.has_value());
  EXPECT_EQ(*keeper, 1u);
  svc->step(*keeper, path(1)[0]);

  // Park the cursor at the end of the id space and drive it across the wrap:
  // max-1, max, 0, then candidate 1 — which is live and must be skipped.
  svc->set_next_session_id(std::numeric_limits<SessionId>::max() - 1);
  std::set<SessionId> ids{*keeper};
  for (int i = 0; i < 4; ++i) {
    const auto id = svc->open_session();
    ASSERT_TRUE(id.has_value());
    EXPECT_TRUE(ids.insert(*id).second)
        << "open_session handed out live id " << *id << " again";
  }
  EXPECT_EQ(svc->active_sessions(), 5u);

  // The long-lived session's state survived the wrap untouched.
  const SessionSummary sum = svc->close_session(*keeper);
  EXPECT_EQ(sum.id, *keeper);
  EXPECT_EQ(sum.steps, 1u);
}

// Regression: the preload scan used to walk the ENTIRE importance ranking
// doing entropy lookups even after the remaining budget could not fit any
// block; it must stop at the first index whose smallest remaining block is
// bigger than the budget.
TEST_F(BlockServiceTest, PreloadScanStopsWhenNoRemainingBlockFits) {
  ServiceConfig cfg = make_config();
  cfg.preload_important = true;
  // A fast level far smaller than the above-sigma set, so the budget runs
  // out early in the ranking.
  BlockService svc(bench_->grid(), make_hierarchy(0.25), cfg, &bench_->table(),
                   &bench_->importance());
  const u64 scanned = svc.metrics().counter("service.preload.scanned").value();
  const u64 preloaded = svc.metrics().counter("service.preload.blocks").value();

  usize above_sigma = 0;
  for (BlockId id : bench_->importance().ranked()) {
    if (bench_->importance().entropy(id) > bench_->sigma_bits()) ++above_sigma;
  }
  ASSERT_GT(above_sigma, 0u);
  EXPECT_GT(preloaded, 0u);
  EXPECT_GT(scanned, 0u);
  EXPECT_GE(scanned, preloaded);
  // The early exit is the point: strictly fewer candidates visited than the
  // whole above-sigma ranking the old loop walked.
  EXPECT_LT(scanned, above_sigma);
}

TEST_F(BlockServiceTest, FetchBlockCountsIntoSessionSummary) {
  auto svc = make_service(make_config());
  const auto id = svc->open_session();
  ASSERT_TRUE(id.has_value());
  const BlockService::BlockFetch miss = svc->fetch_block(*id, 0);
  EXPECT_FALSE(miss.fetch.fast_hit);
  EXPECT_EQ(miss.bytes, bench_->grid().block_bytes(0));
  const BlockService::BlockFetch hit = svc->fetch_block(*id, 0);
  EXPECT_TRUE(hit.fetch.fast_hit);
  EXPECT_THROW(svc->fetch_block(*id, static_cast<BlockId>(
                                          bench_->grid().block_count())),
               InvalidArgument);
  const SessionSummary sum = svc->close_session(*id);
  EXPECT_EQ(sum.demand_requests, 2u);
  EXPECT_EQ(sum.fast_misses, 1u);
  EXPECT_EQ(sum.steps, 0u);
}

TEST_F(BlockServiceTest, StepOrCloseOfUnknownSessionThrows) {
  auto svc = make_service(make_config());
  EXPECT_THROW(svc->step(99, Camera()), InvalidArgument);
  EXPECT_THROW(svc->close_session(99), InvalidArgument);
}

TEST_F(BlockServiceTest, AdmissionRejectsBeyondMaxSessions) {
  ServiceConfig cfg = make_config();
  cfg.max_sessions = 2;
  auto svc = make_service(cfg);
  const auto a = svc->open_session();
  const auto b = svc->open_session();
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(svc->open_session().has_value());
  EXPECT_EQ(svc->metrics().counter("service.sessions.rejected").value(), 1u);
  svc->close_session(*a);
  EXPECT_TRUE(svc->open_session().has_value());  // slot freed
}

TEST_F(BlockServiceTest, TinyPrefetchBudgetShedsPrefetchNeverDemand) {
  ServiceConfig cfg = make_config();
  cfg.aggregate_prefetch_budget_bytes = 1;  // below any block's size
  auto svc = make_service(cfg);
  const auto id = svc->open_session();
  ASSERT_TRUE(id.has_value());
  u64 shed = 0, prefetched = 0, demand = 0;
  for (const Camera& cam : path(20)) {
    const SessionStepResult sr = svc->step(*id, cam);
    shed += sr.prefetch_shed;
    prefetched += sr.prefetched;
    demand += sr.visible_blocks;
  }
  EXPECT_EQ(prefetched, 0u);  // every prefetch shed...
  EXPECT_GT(shed, 0u);
  EXPECT_GT(demand, 0u);  // ...but demand went through untouched
  EXPECT_EQ(svc->metrics().counter("service.demand.requests").value(), demand);
  EXPECT_EQ(svc->metrics().counter("service.prefetch.blocks").value(), 0u);
  EXPECT_EQ(svc->metrics().counter("service.prefetch.shed").value(), shed);
}

// The point of sharing: a session walking ground another session already
// covered inherits its working set. Run A over a path, then B over the SAME
// path — B must see far fewer fast misses than A did.
TEST_F(BlockServiceTest, SecondSessionBenefitsFromSharedCache) {
  auto svc = make_service(make_config());
  const CameraPath p = path();
  const auto a = svc->open_session();
  ASSERT_TRUE(a.has_value());
  for (const Camera& cam : p) svc->step(*a, cam);
  const SessionSummary sa = svc->close_session(*a);

  const auto b = svc->open_session();
  ASSERT_TRUE(b.has_value());
  for (const Camera& cam : p) svc->step(*b, cam);
  const SessionSummary sb = svc->close_session(*b);

  EXPECT_GT(sa.fast_misses, 0u);
  // DRAM holds only a quarter of the dataset, so B still misses where the
  // path outran the cache — but it must do at least 25% better than cold A.
  EXPECT_LT(sb.fast_misses * 4, sa.fast_misses * 3);
}

// Sharing versus sharding the same capacity: four sessions (two pairs on
// the same path) either share one hierarchy or each get a private quarter
// of it. All four step round-robin from this thread, so both runs are
// deterministic. The shared cache holds each pair's working set once; a
// quarter-size shard cannot hold one session's, so it thrashes.
TEST_F(BlockServiceTest, SharedCacheBeatsSameCapacityShards) {
  const CameraPath paths[4] = {path(60, 42), path(60, 42), path(60, 43),
                               path(60, 43)};
  struct Totals {
    u64 fast_hits = 0;
    u64 fast_misses = 0;
    u64 backing_reads = 0;
    double fast_miss_rate() const {
      return static_cast<double>(fast_misses) /
             static_cast<double>(fast_hits + fast_misses);
    }
  };
  // Session s runs on services[s]; a service listed twice hosts both.
  const auto run = [&](const std::vector<BlockService*>& services) {
    std::vector<SessionId> ids;
    for (BlockService* svc : services) {
      ids.push_back(svc->open_session().value());
    }
    for (usize step = 0; step < paths[0].size(); ++step) {
      for (usize s = 0; s < services.size(); ++s) {
        services[s]->step(ids[s], paths[s][step]);
      }
    }
    for (usize s = 0; s < services.size(); ++s) {
      services[s]->close_session(ids[s]);
    }
    Totals totals;
    const std::set<BlockService*> distinct(services.begin(), services.end());
    for (const BlockService* svc : distinct) {
      const HierarchyStats hs = svc->hierarchy().stats();
      totals.fast_hits += hs.level.front().hits;
      totals.fast_misses += hs.level.front().misses;
      totals.backing_reads += hs.backing_reads();
    }
    return totals;
  };

  auto shared_svc = make_service(make_config());
  BlockService* one = shared_svc.get();
  const Totals shared = run({one, one, one, one});

  ServiceConfig shard_cfg = make_config();
  shard_cfg.max_sessions = 1;
  std::vector<std::unique_ptr<BlockService>> shards;
  std::vector<BlockService*> shard_ptrs;
  for (usize s = 0; s < 4; ++s) {
    shards.push_back(std::make_unique<BlockService>(
        bench_->grid(), make_hierarchy(0.25), shard_cfg, &bench_->table(),
        &bench_->importance()));
    shard_ptrs.push_back(shards.back().get());
  }
  const Totals sharded = run(shard_ptrs);

  EXPECT_LT(shared.fast_miss_rate(), sharded.fast_miss_rate());
  EXPECT_LT(shared.backing_reads, sharded.backing_reads);
}

TEST_F(BlockServiceTest, PreloadWarmsTheSharedCache) {
  ServiceConfig cfg = make_config();
  cfg.preload_important = true;
  auto warm = make_service(cfg);
  cfg.preload_important = false;
  auto cold = make_service(cfg);
  const CameraPath p = path(10);
  const auto wid = warm->open_session();
  const auto cid = cold->open_session();
  ASSERT_TRUE(wid && cid);
  u64 warm_misses = 0, cold_misses = 0;
  for (const Camera& cam : p) {
    warm_misses += warm->step(*wid, cam).fast_misses;
    cold_misses += cold->step(*cid, cam).fast_misses;
  }
  EXPECT_LT(warm_misses, cold_misses);
}

TEST_F(BlockServiceTest, AppAwareServiceRequiresTables) {
  ServiceConfig cfg = make_config();
  EXPECT_THROW(BlockService(bench_->grid(), make_hierarchy(), cfg),
               InvalidArgument);
}

}  // namespace
}  // namespace vizcache
