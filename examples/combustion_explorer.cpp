// Combustion explorer: a *live* out-of-core viewer loop over disk bricks.
//
// This is the view-dependent workload of the paper's Fig. 1 driven for
// real: the combustion stand-in dataset is written to disk as a packed brick
// file (the "slow memory"), a camera orbits it, and each frame
//   1. demand-loads the visible bricks (hits come from earlier prefetches),
//   2. starts the async prefetch of the predicted next view (T_visible +
//      entropy filter), and
//   3. ray-casts the resident bricks while the prefetch threads run —
// the real-thread version of Algorithm 1's overlap. The ray-caster samples
// blocks below the entropy threshold at a coarser stride (importance-
// masked adaptive sampling). Frames are written as PPM images, and
// per-frame hit statistics are printed.
//
// Run:  ./combustion_explorer [dir=/tmp/vizcache_flame] [frames=24]
//       [size=64] [image=160]

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <unordered_map>
#include <unordered_set>

#include "service/async_prefetcher.hpp"
#include "core/importance.hpp"
#include "core/visibility.hpp"
#include "core/visibility_table.hpp"
#include "geom/path.hpp"
#include "render/brick_sampler.hpp"
#include "render/raycaster.hpp"
#include "util/config.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"
#include "volume/packed_block_store.hpp"

using namespace vizcache;

namespace fs = std::filesystem;

namespace {

/// Frame-local BrickSampler over the prefetcher's payloads: zero-copy views
/// into whatever is resident this frame. The payload map must outlive the
/// render (it does — it is scoped to the frame loop body).
class FrameBricks final : public BrickSampler {
 public:
  explicit FrameBricks(const BlockGrid& grid)
      : grid_(grid), views_(grid.block_count()) {}

  const BlockGrid& grid() const override { return grid_; }
  BrickView brick(BlockId id) const override { return views_[id]; }

  void add(BlockId id, const std::vector<float>& payload) {
    Dims3 o = grid_.block_voxel_origin(id);
    Dims3 e = grid_.block_voxel_extent(id);
    views_[id] = {payload.data(), o.x, o.y, o.z, e.x, e.y, e.z};
  }

 private:
  const BlockGrid& grid_;
  std::vector<BrickView> views_;
};

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  std::string dir = cfg.get_string("dir", "/tmp/vizcache_flame");
  usize frames = static_cast<usize>(cfg.get_int("frames", 24));
  usize size = static_cast<usize>(cfg.get_int("size", 64));
  usize image = static_cast<usize>(cfg.get_int("image", 160));

  // --- One-time pre-processing (paper Steps 1 & 2) -----------------------
  const std::string store_path = dir + "/lifted_mix_frac.vzpk";
  std::cout << "[1/3] writing combustion bricks to " << store_path
            << " ...\n";
  fs::remove_all(dir);
  fs::create_directories(dir);
  SyntheticVolume flame =
      make_flame_volume("lifted_mix_frac", {size, size, size});
  Dims3 brick{size / 4, size / 4, size / 4};
  PackedFileBlockStore store =
      PackedFileBlockStore::write_store(store_path, flame, brick);
  const BlockGrid& grid = store.grid();

  std::cout << "[2/3] building T_important and T_visible ...\n";
  ImportanceTable importance = ImportanceTable::build(store, 128);
  double sigma = importance.threshold_for_fraction(0.75);
  // Blocks at or below sigma are the ones not worth prefetching; when they
  // are visible anyway the ray-caster integrates them at stride 4.
  const SamplingMask mask = make_sampling_mask(importance, sigma);

  VisibilityTableSpec ts;
  ts.omega = {10, 20, 2, 2.6, 3.2};
  ts.vicinal_samples = 8;
  ts.view_angle_deg = 25.0;
  ts.radius_model = {25.0, 0.25, 1e-3};
  ts.path_step_deg = 360.0 / static_cast<double>(frames);
  VisibilityTable table = VisibilityTable::build(grid, ts, &importance);

  // --- Interactive loop (paper Step 3) -----------------------------------
  std::cout << "[3/3] orbiting the flame, writing frames ...\n";
  BlockBoundsIndex bounds(grid);
  AsyncPrefetcher prefetcher(store, 2);

  SphericalPathSpec ps;
  ps.step_deg = 360.0 / static_cast<double>(frames);
  ps.positions = frames;
  ps.distance = 2.9;
  ps.view_angle_deg = 25.0;
  CameraPath path = make_spherical_path(ps);

  RaycastParams rp;
  rp.image_width = image;
  rp.image_height = image;
  rp.step_size = 0.02;
  const TransferFunction tf = TransferFunction::fire();
  const TransferFunctionLUT lut(tf, rp.step_size);

  TablePrinter stats({"frame", "visible", "hits", "misses", "render(ms)",
                      "coverage"});
  for (usize f = 0; f < path.size(); ++f) {
    const Camera& cam = path[f];
    std::vector<BlockId> visible = bounds.visible_blocks(cam);

    u64 hits_before = prefetcher.stats().demand_hits;
    u64 misses_before = prefetcher.stats().demand_misses;
    std::unordered_map<BlockId, AsyncPrefetcher::Payload> resident;
    for (BlockId id : visible) resident[id] = prefetcher.get_blocking(id);

    // Prefetch the prediction for the *next* frame while this one renders;
    // only blocks above the entropy threshold sigma are worth the I/O.
    std::vector<BlockId> predicted;
    for (BlockId id : table.query(cam.position())) {
      if (importance.entropy(id) > sigma) predicted.push_back(id);
    }
    prefetcher.request(predicted);

    // Packet fast path: residency resolved once per ray/block segment,
    // bricks sampled trilinearly through raw pointers, colors from the
    // precomputed LUT — no per-sample hash lookup or TF scan.
    FrameBricks bricks(grid);
    for (const auto& [id, payload] : resident) bricks.add(id, *payload);

    WallTimer timer;
    Image img = raycast_packet(cam, bricks, lut, rp, nullptr, nullptr, &mask);
    double render_ms = timer.elapsed_ms();

    std::string frame_path = dir + "/frame_" + std::to_string(f) + ".ppm";
    img.write_ppm(frame_path);

    stats.row({std::to_string(f), std::to_string(visible.size()),
               std::to_string(prefetcher.stats().demand_hits - hits_before),
               std::to_string(prefetcher.stats().demand_misses - misses_before),
               TablePrinter::fmt(render_ms, 1),
               TablePrinter::pct(img.coverage())});

    // Keep memory bounded: drop bricks that are neither visible nor
    // predicted (the "fast memory" eviction).
    std::unordered_set<BlockId> keep(visible.begin(), visible.end());
    keep.insert(predicted.begin(), predicted.end());
    prefetcher.evict_except(keep);
  }
  prefetcher.drain();

  stats.print("combustion explorer — per-frame statistics");
  const auto& s = prefetcher.stats();
  std::cout << "\nprefetched " << s.prefetched << " bricks in the background; "
            << s.demand_hits << "/" << (s.demand_hits + s.demand_misses)
            << " demand reads were prefetch hits\n"
            << "frames written to " << dir << "/frame_*.ppm\n";
  return 0;
}
