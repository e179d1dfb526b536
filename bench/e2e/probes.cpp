// Probe phase of a trace run. Every probe times one layer's public calls on
// the workload's own cameras, in one thread, so each per-layer timing
// exists on every workload (a workload whose loop never reaches a layer
// still says what that layer costs on its inputs).

#include <algorithm>

#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "render/raycaster.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace vizcache::e2e {

namespace {

double us_since(u64 t0) { return static_cast<double>(now_ns() - t0) / 1e3; }

/// The payload of one complete encoded frame.
std::span<const u8> frame_body(const std::vector<u8>& frame) {
  ParsedFrame parsed;
  VIZ_CHECK(try_parse_frame(frame, kMaxResponsePayload, parsed) ==
                ParseStatus::kFrame,
            "probe frame does not parse");
  return parsed.body;
}

}  // namespace

double run_probes(const Options& opt, const Workbench& world,
                  const std::vector<CameraPath>& paths, Report& report) {
  double serial_step_us = 0.0;
  const usize max_cameras = opt.smoke ? 200 : 2000;
  std::vector<Camera> cameras;
  for (const CameraPath& path : paths) {
    for (const Camera& cam : path) {
      if (cameras.size() < max_cameras) cameras.push_back(cam);
    }
  }
  VIZ_CHECK(!cameras.empty(), "probe phase needs cameras");
  const BlockGrid& grid = world.grid();

  // core: exact visible sets and T_visible lookups.
  const BlockBoundsIndex index(grid);
  std::vector<std::vector<BlockId>> visible(cameras.size());
  std::vector<double> visible_us;
  std::vector<double> query_us;
  usize predicted = 0;
  for (usize c = 0; c < cameras.size(); ++c) {
    const u64 t0 = now_ns();
    visible[c] = index.visible_blocks(cameras[c]);
    visible_us.push_back(us_since(t0));
  }
  for (const Camera& cam : cameras) {
    const u64 t0 = now_ns();
    predicted += world.table().query(cam.position()).size();
    query_us.push_back(us_since(t0));
  }
  report.check(predicted > 0, "T_visible predicts blocks on the probe cameras");
  report.metric("core.visible_blocks_us_p50", median(visible_us), "us",
                visible_us.size());
  report.metric("core.table_query_us_p50", median(query_us), "us",
                query_us.size());

  // core: whole app-aware paths, and an LRU run of the same paths to tell
  // useful prefetches from wasted ones.
  const usize probe_paths = std::min<usize>(paths.size(), opt.smoke ? 1 : 6);
  std::vector<double> path_ms;
  u64 lru_demand_reads = 0;
  u64 opt_demand_reads = 0;
  u64 opt_prefetch_reads = 0;
  for (usize p = 0; p < probe_paths; ++p) {
    const u64 t0 = now_ns();
    const RunResult app = world.run_app_aware(paths[p]);
    path_ms.push_back(us_since(t0) / 1e3);
    const RunResult lru = world.run_baseline(PolicyKind::kLru, paths[p]);
    opt_demand_reads += app.hierarchy.demand_backing_reads;
    opt_prefetch_reads += app.hierarchy.prefetch_backing_reads;
    lru_demand_reads += lru.hierarchy.demand_backing_reads;
  }
  report.metric("core.run_path_ms_p50", median(path_ms), "ms", path_ms.size());
  report.metric("core.prefetch_useful_frac",
                opt_prefetch_reads == 0
                    ? 0.0
                    : (static_cast<double>(lru_demand_reads) -
                       static_cast<double>(opt_demand_reads)) /
                          static_cast<double>(opt_prefetch_reads),
                "fraction");

  // storage: the visible sets replayed as demand fetches into a cold LRU
  // testbed — the hierarchy's own hit, miss, insert and evict path.
  MemoryHierarchy hierarchy = testbed(world);
  std::vector<double> fetch_ns;
  for (usize c = 0; c < cameras.size(); ++c) {
    for (BlockId id : visible[c]) {
      const u64 t0 = now_ns();
      hierarchy.fetch(id, c + 1);
      fetch_ns.push_back(static_cast<double>(now_ns() - t0));
    }
  }
  report.metric("storage.fetch_ns_p50", percentile(fetch_ns, 0.5), "ns",
                fetch_ns.size());
  report.metric("storage.fetch_ns_p99", percentile(fetch_ns, 0.99), "ns",
                fetch_ns.size());

  // The viewer stream of the service and wire probes: one path's worth.
  const usize stream = std::min<usize>(cameras.size(), 400);

  // service: one viewer on a fresh service, no contention.
  {
    BlockService svc(grid, testbed(world), service_config(world, 4),
                     &world.table(), &world.importance());
    const auto id = svc.open_session();
    VIZ_CHECK(id.has_value(), "probe session refused");
    std::vector<double> step_us;
    usize mismatched = 0;
    for (usize c = 0; c < stream; ++c) {
      const u64 t0 = now_ns();
      const SessionStepResult sr = svc.step(*id, cameras[c]);
      step_us.push_back(us_since(t0));
      if (sr.visible_blocks != visible[c].size()) ++mismatched;
    }
    svc.close_session(*id);
    std::vector<double> open_close_us;
    for (usize i = 0; i < (opt.smoke ? 20u : 200u); ++i) {
      const u64 t0 = now_ns();
      const auto sid = svc.open_session();
      VIZ_CHECK(sid.has_value(), "probe session refused");
      svc.close_session(*sid);
      open_close_us.push_back(us_since(t0));
    }
    report.check(mismatched == 0, "probe service steps see the exact visible sets");
    serial_step_us = median(step_us);
    report.metric("service.step_us_p50_serial", serial_step_us,
                  "us", step_us.size());
    report.metric("service.open_close_us_p50", median(open_close_us), "us",
                  open_close_us.size());
  }

  // net: the codec on this stream's frames (one STEP and one FETCH of a
  // visible block per viewer step), then one connection over loopback.
  {
    std::vector<double> encode_ns;
    std::vector<double> decode_ns;
    usize decoded = 0;
    for (usize c = 0; c < cameras.size(); ++c) {
      const BlockId block =
          visible[c].empty() ? 0 : visible[c][c % visible[c].size()];
      SessionStepResult sr;
      sr.visible_blocks = visible[c].size();
      const std::vector<u8> step_ok = encode_step_ok(sr);
      const std::vector<u8> fetch_ok =
          encode_fetch_ok(block, true, false, 0.0, grid.block_bytes(block));
      const std::span<const u8> step_body = frame_body(step_ok);
      const std::span<const u8> fetch_body = frame_body(fetch_ok);

      u64 t0 = now_ns();
      const std::vector<u8> step_req = encode_step(cameras[c]);
      const std::vector<u8> fetch_req = encode_fetch(block);
      encode_ns.push_back(static_cast<double>(now_ns() - t0));
      t0 = now_ns();
      const auto step_reply = decode_step_ok(step_body);
      const auto fetch_reply = decode_fetch_ok(fetch_body);
      decode_ns.push_back(static_cast<double>(now_ns() - t0));
      if (step_reply && fetch_reply && !step_req.empty() && !fetch_req.empty())
        ++decoded;
    }
    report.check(decoded == cameras.size(), "probe frames round-trip the codec");
    report.metric("net.encode_ns_p50", median(encode_ns), "ns",
                  encode_ns.size());
    report.metric("net.decode_ns_p50", median(decode_ns), "ns",
                  decode_ns.size());

    BlockService svc(grid, testbed(world), service_config(world, 4),
                     &world.table(), &world.importance());
    NetServerConfig net_cfg;
    net_cfg.workers = 4;
    NetServer server(svc, net_cfg);
    server.start();
    NetClient client;
    client.connect("127.0.0.1", server.port());
    client.open();
    std::vector<double> wait_us;
    usize bad_replies = 0;
    for (usize c = 0; c < stream; ++c) {
      client.send_raw(encode_step(cameras[c]));
      const u64 t0 = now_ns();
      const std::optional<RawFrame> frame = client.read_frame();
      wait_us.push_back(us_since(t0));
      if (!frame || frame->type != FrameType::kStepOk) ++bad_replies;
    }
    client.close_session();
    client.disconnect();
    server.stop();
    report.check(bad_replies == 0, "probe wire steps answered STEP_OK");
    const double wait_p50 = percentile(wait_us, 0.5);
    report.metric("net.recv_wait_us_p50", wait_p50, "us", wait_us.size());
    report.metric("net.recv_wait_us_p99", percentile(wait_us, 0.99), "us",
                  wait_us.size());
    report.metric("net.overhead_us_p50", wait_p50 - serial_step_us,
                  "us", wait_us.size());
  }

  // volume + render: read the first view's blocks from the store, make the
  // whole volume resident, and render a few of the stream's views.
  {
    std::vector<double> read_us;
    usize short_reads = 0;
    for (BlockId id : visible.front()) {
      const u64 t0 = now_ns();
      const std::vector<float> payload = world.store().read_block(id);
      read_us.push_back(us_since(t0));
      if (payload.size() * sizeof(float) != grid.block_bytes(id)) ++short_reads;
    }
    report.check(short_reads == 0, "read_block returns every voxel of a block");
    report.metric("volume.read_block_us_p50", median(read_us), "us",
                  read_us.size());

    u64 t0 = now_ns();
    ResidentBrickSet bricks(grid);
    bricks.load_all(world.store());
    report.metric("render.brick_load_s", us_since(t0) / 1e6, "s");

    RaycastParams params;
    params.image_width = 256;
    params.image_height = 256;
    params.step_size = 0.005;
    const TransferFunctionLUT lut(TransferFunction::fire(), params.step_size);
    ThreadPool pool;
    std::vector<double> ns_per_sample;
    for (usize f = 0; f < std::min<usize>(cameras.size(), opt.smoke ? 1 : 4);
         ++f) {
      RaycastStats stats;
      t0 = now_ns();
      (void)raycast_packet(cameras[f], bricks, lut, params, &pool, &stats);
      const double ns = static_cast<double>(now_ns() - t0);
      if (stats.samples > 0) {
        ns_per_sample.push_back(ns / static_cast<double>(stats.samples));
      }
    }
    report.check(!ns_per_sample.empty(), "probe frames sample the volume");
    report.metric("render.ns_per_sample", median(ns_per_sample), "ns",
                  ns_per_sample.size());
  }
  return serial_step_us;
}

}  // namespace vizcache::e2e
