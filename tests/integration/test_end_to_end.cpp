#include <gtest/gtest.h>

#include <filesystem>

#include "service/async_prefetcher.hpp"
#include "core/importance.hpp"
#include "core/visibility.hpp"
#include "core/visibility_table.hpp"
#include "core/workbench.hpp"
#include "render/analytics.hpp"
#include "render/raycaster.hpp"
#include "volume/packed_block_store.hpp"

namespace vizcache {
namespace {

namespace fs = std::filesystem;

/// Full live loop against a real packed brick file: build tables, walk a
/// path, prefetch with real threads, render with the real ray-caster off the
/// prefetcher's cache, and run the data-dependent analytics — everything
/// the simulated pipeline models, exercised for real.
TEST(EndToEnd, LiveOutOfCoreExploration) {
  std::string root =
      (fs::temp_directory_path() / "vizcache_e2e_store").string();
  fs::remove_all(root);
  fs::create_directories(root);

  SyntheticVolume flame = make_flame_volume("e2e", {48, 48, 48});
  PackedFileBlockStore store = PackedFileBlockStore::write_store(
      root + "/e2e.vzpk", flame, {12, 12, 12});
  const BlockGrid& grid = store.grid();

  ImportanceTable importance = ImportanceTable::build(store, 64);

  VisibilityTableSpec ts;
  ts.omega = {6, 12, 2, 2.5, 3.5};
  ts.vicinal_samples = 6;
  ts.view_angle_deg = 20.0;
  ts.radius_model = {20.0, 0.25, 1e-3};
  VisibilityTable table = VisibilityTable::build(grid, ts, &importance);

  BlockBoundsIndex bounds(grid);
  AsyncPrefetcher prefetcher(store, 2);

  SphericalPathSpec ps;
  ps.step_deg = 8.0;
  ps.positions = 12;
  ps.view_angle_deg = 20.0;
  CameraPath path = make_spherical_path(ps);

  RaycastParams rp;
  rp.image_width = 24;
  rp.image_height = 24;
  rp.step_size = 0.1;

  double covered_frames = 0;
  for (const Camera& cam : path) {
    std::vector<BlockId> visible = bounds.visible_blocks(cam);
    ASSERT_FALSE(visible.empty());

    // Demand-load the visible set (hits come from earlier prefetches).
    std::unordered_map<BlockId, AsyncPrefetcher::Payload> resident;
    for (BlockId id : visible) {
      resident[id] = prefetcher.get_blocking(id);
    }

    // Kick off prefetch of the predicted next view while we render.
    prefetcher.request(table.query(cam.position()));

    VolumeSampler sampler = [&](const Vec3& p) -> std::optional<float> {
      BlockId id = grid.block_at_normalized(p);
      if (id == kInvalidBlock) return std::nullopt;
      auto it = resident.find(id);
      if (it == resident.end()) return std::nullopt;
      // Nearest-voxel lookup within the brick.
      Dims3 o = grid.block_voxel_origin(id);
      Dims3 e = grid.block_voxel_extent(id);
      const Dims3& vd = grid.volume_dims();
      auto voxel = [](double np, usize total) {
        auto v = static_cast<i64>((np + 1.0) * 0.5 *
                                  static_cast<double>(total));
        return static_cast<usize>(
            std::clamp<i64>(v, 0, static_cast<i64>(total) - 1));
      };
      usize lx = voxel(p.x, vd.x) - o.x;
      usize ly = voxel(p.y, vd.y) - o.y;
      usize lz = voxel(p.z, vd.z) - o.z;
      return (*it->second)[(lz * e.y + ly) * e.x + lx];
    };

    Image img = raycast(cam, sampler, TransferFunction::fire(), rp);
    if (img.coverage() > 0.0) covered_frames += 1.0;
  }
  prefetcher.drain();

  // Most frames must actually show the flame.
  EXPECT_GT(covered_frames, 8.0);
  // Prefetching must have produced real cache hits.
  EXPECT_GT(prefetcher.stats().demand_hits, 0u);
  EXPECT_GT(prefetcher.stats().prefetched, 0u);

  // Data-dependent pass over the last visible set (Fig. 3 analytics).
  Camera last = path.back();
  std::vector<BlockId> visible = bounds.visible_blocks(last);
  RegionAnalytics analytics = analyze_region(store, visible, 1);
  EXPECT_GT(analytics.voxels_analyzed, 0u);
  EXPECT_GT(analytics.histograms[0].total(), 0u);

  fs::remove_all(root);
}

/// The simulated pipeline and the bench workbench agree on basics for a
/// non-ball dataset (climate).
TEST(EndToEnd, ClimateWorkbenchRuns) {
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kClimate;
  spec.scale = 0.15;
  spec.target_blocks = 128;
  spec.omega = {6, 12, 2, 2.5, 3.5};
  Workbench wb(spec);

  RandomPathSpec rp;
  rp.positions = 30;
  CameraPath path = make_random_path(rp);

  RunResult fifo = wb.run_baseline(PolicyKind::kFifo, path);
  RunResult opt = wb.run_app_aware(path);
  EXPECT_EQ(fifo.steps.size(), opt.steps.size());
  EXPECT_GT(opt.hierarchy.prefetch_requests, 0u);
  EXPECT_LE(opt.io_time, fifo.io_time + 1e-9);
}

}  // namespace
}  // namespace vizcache
