// render: raycast_packet frames of a fully resident 3d_ball along a seeded
// 5-10 degree orbit. storage, service and net do no work here, so every
// non-render change should leave this workload unchanged.

#include <algorithm>
#include <cmath>
#include <memory>

#include "render/raycaster.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace vizcache::e2e {

namespace {

/// The golden bound of the packet path against the scalar reference
/// (tests/render/test_packet_raycaster.cpp).
constexpr double kGoldenBound = 1e-3;

double max_channel_diff(const Image& a, const Image& b) {
  double worst = 0.0;
  for (usize y = 0; y < a.height(); ++y) {
    for (usize x = 0; x < a.width(); ++x) {
      const Rgba& pa = a.at(x, y);
      const Rgba& pb = b.at(x, y);
      worst = std::max({worst, std::abs(static_cast<double>(pa.r - pb.r)),
                        std::abs(static_cast<double>(pa.g - pb.g)),
                        std::abs(static_cast<double>(pa.b - pb.b)),
                        std::abs(static_cast<double>(pa.a - pb.a))});
    }
  }
  return worst;
}

bool same_stats(const RaycastStats& a, const RaycastStats& b) {
  return a.rays == b.rays && a.samples == b.samples &&
         a.composited == b.composited && a.skipped == b.skipped;
}

/// The resident volume and render resources of one set-up.
struct RenderWorld {
  std::unique_ptr<SyntheticBlockStore> store;
  std::unique_ptr<ResidentBrickSet> bricks;
  std::unique_ptr<ThreadPool> pool;
};

}  // namespace

void run_render(const Options& opt, Report& report) {
  const usize frames = opt.count(110, 3);
  // A 40-degree cone at distance 3 frames the whole volume.
  const CameraPath orbit =
      random_path(5.0, 10.0, frames, derive_seed(opt.seed, 0), 40.0);

  RaycastParams params;
  params.image_width = 256;
  params.image_height = 256;
  params.step_size = 0.005;
  const TransferFunction tf = TransferFunction::fire();

  const WorkbenchSpec spec = render_spec();
  HostSpeed host(opt.setups() + frames, true);
  RenderWorld world;
  const Timing setup = time_setups(opt, host, [&] {
    world = RenderWorld{};
    const u64 t0 = now_ns();
    SyntheticVolume volume = make_dataset(spec.dataset, spec.scale);
    const BlockGrid grid =
        BlockGrid::with_target_block_count(volume.desc.dims, spec.target_blocks);
    world.store = std::make_unique<SyntheticBlockStore>(std::move(volume),
                                                        grid.block_dims());
    world.bricks = std::make_unique<ResidentBrickSet>(world.store->grid());
    world.bricks->load_all(*world.store);
    world.pool = std::make_unique<ThreadPool>();
    return seconds_since(t0);
  });
  const TransferFunctionLUT lut(tf, params.step_size);

  // Warm-up: frame 0 once, untimed. The timed frame 0 must repeat its stats.
  RaycastStats warm_stats;
  (void)raycast_packet(orbit.front(), *world.bricks, lut, params,
                       world.pool.get(), &warm_stats);

  SpanRecorder rec(0, frames);
  std::vector<TimedOp> ops;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  u64 samples = 0;
  u64 composited = 0;
  RaycastStats first_stats;
  Image first_image(1, 1);
  const u64 loop_t0 = now_ns();
  for (usize f = 0; f < frames; ++f) {
    RaycastStats stats;
    TimedOp op{now_ns(), 0, 1.0};
    Image image = [&] {
      SpanScope span(opt.traced(f) ? &rec : nullptr, "render.raycast_packet", f);
      return raycast_packet(orbit[f], *world.bricks, lut, params,
                            world.pool.get(), &stats);
    }();
    op.end_ns = now_ns();
    ops.push_back(op);
    (opt.traced(f) ? traced_ms : untraced_ms).push_back(op.step_ms());
    samples += stats.samples;
    composited += stats.composited;
    if (f == 0) {
      first_stats = stats;
      first_image = std::move(image);
    }
    host.sample();
  }
  const u64 loop_t1 = now_ns();
  report.ops(frames, 0);

  const Image reference =
      raycast(orbit.front(), make_reference_sampler(*world.bricks), tf, params,
              world.pool.get());
  report.check(max_channel_diff(first_image, reference) <= kGoldenBound,
               "frame 0 within the golden bound of the scalar reference");
  report.check(same_stats(first_stats, warm_stats),
               "rendering frame 0 twice gives identical RaycastStats");
  report.check(first_stats.samples > 0, "frame 0 samples the volume");

  report.timing("setup_s", setup, "s", opt.setups());
  report_loop(LoopWindows(loop_t0, loop_t1, host), ops, report);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("render.samples_per_frame",
                static_cast<double>(samples) / static_cast<double>(frames),
                "count", 0, true);
  report.metric("render.composited_frac",
                samples ? static_cast<double>(composited) /
                              static_cast<double>(samples)
                        : 0.0,
                "fraction", 0, true);

  if (opt.trace) {
    report_trace_overhead(traced_ms, untraced_ms, report);
    const u64 t0 = now_ns();
    const Workbench probe_world(spec);
    report.metric("core.workbench_build_s", seconds_since(t0), "s");
    run_probes(opt, probe_world, {orbit}, report);
    write_trace(opt.workload, {&rec}, report);
  }
}

}  // namespace vizcache::e2e
