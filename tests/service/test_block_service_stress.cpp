// Four unpaced viewers on one BlockService: steps and FETCHes from real
// threads, with every miss read inside the shared-hierarchy hold. Viewers
// {0,1} walk one seeded path and {2,3} another, so both viewers of a pair
// demand the same blocks at the same time. Labelled `stress` in ctest so the
// sanitizer presets (TSan above all) run it.

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "core/workbench.hpp"
#include "service/block_service.hpp"

namespace vizcache {
namespace {

constexpr usize kViewers = 4;
constexpr usize kSessions = 3;
constexpr usize kSteps = 30;

/// One step of a viewer's path, worked out before the threads start: the
/// camera, its exact visible count, and the visible block to FETCH.
struct PlannedStep {
  Camera camera;
  usize visible = 0;
  BlockId block = 0;
};

std::vector<PlannedStep> plan(const BlockBoundsIndex& index, u64 seed) {
  RandomPathSpec rp;
  rp.step_min_deg = 4.0;
  rp.step_max_deg = 6.0;
  rp.positions = kSteps;
  rp.seed = seed;
  std::vector<PlannedStep> out;
  for (const Camera& cam : make_random_path(rp)) {
    const std::vector<BlockId> visible = index.visible_blocks(cam);
    PlannedStep ps;
    ps.camera = cam;
    ps.visible = visible.size();
    ps.block = visible.empty() ? 0 : visible[visible.size() / 2];
    out.push_back(ps);
  }
  return out;
}

TEST(BlockServiceStress, FourUnpacedViewersStepAndFetch) {
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.08;
  spec.target_blocks = 256;
  spec.omega = {8, 16, 3, 2.5, 3.5};
  const Workbench bench(spec);

  ServiceConfig cfg;
  cfg.app_aware = true;
  cfg.sigma_bits = bench.sigma_bits();
  cfg.render_model = bench.spec().render_model;
  cfg.lookup_cost = bench.spec().lookup_cost;
  cfg.max_sessions = kViewers;
  cfg.leader_pace_seconds = 0.0;
  const BlockGrid* g = &bench.grid();
  BlockService svc(bench.grid(),
                   MemoryHierarchy::paper_testbed(
                       bench.dataset_bytes(), bench.spec().cache_ratio,
                       PolicyKind::kLru,
                       [g](BlockId id) { return g->block_bytes(id); }),
                   cfg, &bench.table(), &bench.importance());

  const BlockBoundsIndex index(bench.grid());
  const std::vector<std::vector<PlannedStep>> paths{plan(index, 11),
                                                    plan(index, 12)};

  // Each viewer writes only its own slot; read after the joins.
  std::vector<u64> demanded(kViewers, 0), wrong_visible(kViewers, 0),
      wrong_bytes(kViewers, 0), refused(kViewers, 0);
  std::vector<std::thread> viewers;
  viewers.reserve(kViewers);
  for (usize v = 0; v < kViewers; ++v) {
    viewers.emplace_back([&, v] {
      const std::vector<PlannedStep>& path = paths[v / 2];
      for (usize s = 0; s < kSessions; ++s) {
        const std::optional<SessionId> id = svc.open_session();
        if (!id) {
          ++refused[v];
          continue;
        }
        for (const PlannedStep& ps : path) {
          const SessionStepResult sr = svc.step(*id, ps.camera);
          if (sr.visible_blocks != ps.visible) ++wrong_visible[v];
          const BlockService::BlockFetch f = svc.fetch_block(*id, ps.block);
          if (f.bytes != bench.grid().block_bytes(ps.block)) ++wrong_bytes[v];
          demanded[v] += sr.visible_blocks + 1;
        }
        svc.close_session(*id);
      }
    });
  }
  for (std::thread& t : viewers) t.join();

  u64 total_demanded = 0;
  for (usize v = 0; v < kViewers; ++v) {
    EXPECT_EQ(refused[v], 0u) << "viewer " << v;
    EXPECT_EQ(wrong_visible[v], 0u) << "viewer " << v;
    EXPECT_EQ(wrong_bytes[v], 0u) << "viewer " << v;
    total_demanded += demanded[v];
  }
  EXPECT_EQ(svc.metrics().counter("service.demand.requests").value(),
            total_demanded);
  EXPECT_EQ(svc.hierarchy().stats().demand_requests, total_demanded);
  EXPECT_GT(svc.hierarchy().stats().demand_backing_reads, 0u);

  // Unpaced and with no outside claimer, every miss is read in the hold:
  // the coalescer never sees a claim.
  const RequestCoalescer::Stats cs = svc.hierarchy().coalescer().stats();
  EXPECT_EQ(cs.claims, cs.completions);
  EXPECT_EQ(cs.claims, 0u);
  EXPECT_EQ(svc.hierarchy().coalescer().in_flight_count(), 0u);
  EXPECT_EQ(svc.active_sessions(), 0u);
}

}  // namespace
}  // namespace vizcache
