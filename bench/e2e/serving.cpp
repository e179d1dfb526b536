// sessions / wire: four closed-loop viewers against ONE BlockService over
// one shared LRU paper testbed, so its lock, epochs and coalescer see 4-way
// contention. Viewers {0,1} walk one set of session paths and {2,3} another,
// so each pair contends for the same blocks at the same time. `wire` sends
// the identical request stream through NetServer (4 workers) over loopback,
// one blocking connection per viewer, so wire − sessions is the net layer.

#include <barrier>
#include <optional>
#include <stdexcept>
#include <thread>

#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace vizcache::e2e {

namespace {

constexpr usize kViewers = 4;
/// Viewers 2p and 2p+1 walk the session paths of pair p.
constexpr usize kPairs = kViewers / 2;
constexpr usize kSteps = 400;
/// Every 64th FETCH payload is compared byte for byte.
constexpr u64 kPayloadCheckEvery = 64;

/// One viewer step, generated before timing: the camera, the visible-block
/// count the reply must carry, and the visible block to fetch.
struct ViewerStep {
  Camera camera;
  usize visible = 0;
  BlockId block = 0;
};
using SessionInputs = std::vector<ViewerStep>;

/// Viewers start each session together; between sessions, while every
/// viewer waits, the last to arrive samples the host speed.
struct SampleHost {
  HostSpeed* host;
  void operator()() noexcept { host->sample(); }
};
using SessionBarrier = std::barrier<SampleHost>;

/// What one viewer thread measured; each thread writes only its own log.
struct ViewerLog {
  ViewerLog(u32 tid, usize span_capacity) : rec(tid, span_capacity) {}

  SpanRecorder rec;
  std::vector<TimedOp> steps;
  std::vector<TimedOp> fetches;
  std::vector<double> traced_step_ms;
  std::vector<double> untraced_step_ms;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 4) errors.push_back(std::move(what));
  }
  void step_done(u64 t0, bool traced) {
    steps.push_back({t0, now_ns(), 1.0});
    (traced ? traced_step_ms : untraced_step_ms).push_back(steps.back().step_ms());
  }
  void fetch_done(u64 t0) { fetches.push_back({t0, now_ns(), 1.0}); }
};

u64 request_id(usize viewer, usize session, usize op) {
  return (static_cast<u64>(viewer) << 48) | (static_cast<u64>(session) << 24) |
         static_cast<u64>(op);
}

/// The session paths both viewers of `pair` walk.
std::vector<SessionInputs> session_inputs(const Options& opt, usize pair,
                                          usize sessions,
                                          const BlockBoundsIndex& index) {
  std::vector<SessionInputs> out(sessions);
  for (usize s = 0; s < sessions; ++s) {
    const u64 stream = (u64{1} << 32) | (static_cast<u64>(pair) << 24) | s;
    const CameraPath path =
        random_path(4.0, 6.0, kSteps, derive_seed(opt.seed, stream));
    Rng pick(derive_seed(opt.seed, stream ^ 0xB10Cull));
    out[s].reserve(kSteps);
    for (const Camera& cam : path) {
      const std::vector<BlockId> visible = index.visible_blocks(cam);
      ViewerStep vs;
      vs.camera = cam;
      vs.visible = visible.size();
      vs.block = visible.empty() ? 0 : visible[pick.next_below(visible.size())];
      out[s].push_back(vs);
    }
  }
  return out;
}

void drive_in_process(const Options& opt, BlockService& svc, usize viewer,
                      const std::vector<SessionInputs>& sessions,
                      SessionBarrier& rounds, ViewerLog& log) {
  const BlockGrid& grid = svc.grid();
  for (usize s = 0; s < sessions.size(); ++s) {
    const bool traced = opt.traced(s);
    SpanRecorder* rec = traced ? &log.rec : nullptr;
    std::optional<SessionId> id;
    try {
      {
        SpanScope span(rec, "service.open_session",
                       request_id(viewer, s, 2 * kSteps));
        id = svc.open_session();
      }
      ++log.attempted;
      if (!id) throw std::runtime_error("open_session refused");
      for (usize i = 0; i < kSteps; ++i) {
        const ViewerStep& vs = sessions[s][i];
        u64 t0 = now_ns();
        SessionStepResult sr;
        {
          SpanScope span(rec, "service.step", request_id(viewer, s, 2 * i));
          sr = svc.step(*id, vs.camera);
        }
        log.step_done(t0, traced);
        ++log.attempted;
        if (sr.visible_blocks != vs.visible) log.fail("step visible_blocks differs");

        t0 = now_ns();
        BlockService::BlockFetch fetch;
        {
          SpanScope span(rec, "service.fetch_block",
                         request_id(viewer, s, 2 * i + 1));
          fetch = svc.fetch_block(*id, vs.block);
        }
        log.fetch_done(t0);
        ++log.attempted;
        if (fetch.bytes != grid.block_bytes(vs.block)) log.fail("fetch size differs");
      }
      {
        SpanScope span(rec, "service.close_session",
                       request_id(viewer, s, 2 * kSteps + 1));
        svc.close_session(*id);
      }
      ++log.attempted;
    } catch (const std::exception& e) {
      log.fail(std::string("service session failed: ") + e.what());
    }
    rounds.arrive_and_wait();
  }
}

/// One request over the wire with the bytes NetClient would send, split
/// into the spans net.encode -> net.send_raw -> net.recv_wait (server plus
/// loopback) -> net.decode under one request span.
template <typename Decoded, typename Encode>
Decoded exchange(NetClient& client, SpanRecorder* rec, const char* name,
                 u64 request, Encode&& encode, FrameType expected,
                 std::optional<Decoded> (*decode)(std::span<const u8>)) {
  SpanScope whole(rec, name, request);
  std::vector<u8> bytes;
  {
    SpanScope span(rec, "net.encode", request, whole.index());
    bytes = encode();
  }
  {
    SpanScope span(rec, "net.send_raw", request, whole.index());
    client.send_raw(bytes);
  }
  std::optional<RawFrame> frame;
  {
    SpanScope span(rec, "net.recv_wait", request, whole.index());
    frame = client.read_frame();
  }
  if (!frame) throw IoError("server closed the connection");
  if (frame->type == FrameType::kError) {
    const std::optional<NetErrorReply> err = decode_error(frame->body);
    throw IoError("ERROR frame: " + (err ? err->message : std::string("?")));
  }
  if (frame->type != expected) throw IoError("unexpected reply frame type");
  SpanScope span(rec, "net.decode", request, whole.index());
  std::optional<Decoded> out = decode(frame->body);
  if (!out) throw IoError("undecodable reply");
  return *std::move(out);
}

void drive_wire(const Options& opt, NetClient& client, const BlockGrid& grid,
                usize viewer, const std::vector<SessionInputs>& sessions,
                SessionBarrier& rounds, ViewerLog& log) {
  u64 fetches = 0;
  for (usize s = 0; s < sessions.size(); ++s) {
    const bool traced = opt.traced(s);
    SpanRecorder* rec = traced ? &log.rec : nullptr;
    try {
      (void)exchange(client, rec, "net.open", request_id(viewer, s, 2 * kSteps),
                     [] { return encode_open(); }, FrameType::kOpenOk,
                     &decode_open_ok);
      ++log.attempted;
      for (usize i = 0; i < kSteps; ++i) {
        const ViewerStep& vs = sessions[s][i];
        u64 t0 = now_ns();
        const SessionStepResult sr = exchange(
            client, rec, "net.step", request_id(viewer, s, 2 * i),
            [&] { return encode_step(vs.camera); }, FrameType::kStepOk,
            &decode_step_ok);
        log.step_done(t0, traced);
        ++log.attempted;
        if (sr.visible_blocks != vs.visible) log.fail("STEP_OK visible_blocks differs");

        t0 = now_ns();
        const FetchReply reply = exchange(
            client, rec, "net.fetch", request_id(viewer, s, 2 * i + 1),
            [&] { return encode_fetch(vs.block); }, FrameType::kFetchOk,
            &decode_fetch_ok);
        log.fetch_done(t0);
        ++log.attempted;
        if (reply.block != vs.block ||
            reply.payload.size() != grid.block_bytes(vs.block)) {
          log.fail("FETCH_OK block or payload size differs");
        } else if (fetches % kPayloadCheckEvery == 0) {
          for (usize b = 0; b < reply.payload.size(); ++b) {
            if (reply.payload[b] != block_payload_byte(vs.block, b)) {
              log.fail("FETCH_OK payload bytes differ");
              break;
            }
          }
        }
        ++fetches;
      }
      (void)exchange(client, rec, "net.close",
                     request_id(viewer, s, 2 * kSteps + 1),
                     [] { return encode_close(); }, FrameType::kCloseOk,
                     &decode_close_ok);
      ++log.attempted;
    } catch (const std::exception& e) {
      log.fail(std::string("wire request failed: ") + e.what());
      rounds.arrive_and_drop();
      return;  // the connection state is unknown; stop this viewer
    }
    rounds.arrive_and_wait();
  }
}

/// The service, server and connections of one set-up; torn down in reverse.
struct ServingWorld {
  std::optional<Workbench> bench;
  std::optional<BlockService> service;
  std::optional<NetServer> server;
  std::vector<NetClient> clients;

  /// Returns the seconds the Workbench constructor took.
  double build(bool wire) {
    const u64 t0 = now_ns();
    bench.emplace(serving_spec());
    const double bench_s = static_cast<double>(now_ns() - t0) / 1e9;
    service.emplace(bench->grid(), testbed(*bench),
                    service_config(*bench, kViewers), &bench->table(),
                    &bench->importance());
    if (!wire) return bench_s;
    NetServerConfig cfg;
    cfg.workers = kViewers;
    server.emplace(*service, cfg);
    server->start();
    clients.resize(kViewers);
    for (NetClient& c : clients) c.connect("127.0.0.1", server->port());
    return bench_s;
  }
  void teardown() {
    clients.clear();
    server.reset();
    service.reset();
    bench.reset();
  }
};

double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void run_serving(const Options& opt, bool wire, Report& report) {
  const usize sessions = opt.count(60, 2);

  HostSpeed host(opt.setups() + sessions, true);
  ServingWorld world;
  std::vector<double> workbench_s;
  const Timing setup = time_setups(opt, host, [&] {
    world.teardown();
    const u64 t0 = now_ns();
    workbench_s.push_back(world.build(wire));
    return seconds_since(t0);
  });
  BlockService& svc = *world.service;
  const BlockGrid& grid = svc.grid();

  std::vector<std::vector<SessionInputs>> inputs;
  {
    const BlockBoundsIndex index(grid);
    for (usize p = 0; p < kPairs; ++p) {
      inputs.push_back(session_inputs(opt, p, sessions, index));
    }
  }

  const usize traced_sessions = opt.trace ? (sessions + 1) / 2 : 0;
  const usize span_capacity = traced_sessions * (2 * kSteps + 2) * (wire ? 5 : 1);
  std::vector<ViewerLog> logs;
  logs.reserve(kViewers);
  for (usize v = 0; v < kViewers; ++v) {
    logs.emplace_back(static_cast<u32>(v + 1), span_capacity);
  }

  SessionBarrier rounds(kViewers, SampleHost{&host});
  const u64 loop_t0 = now_ns();
  {
    std::vector<std::thread> viewers;
    viewers.reserve(kViewers);
    for (usize v = 0; v < kViewers; ++v) {
      viewers.emplace_back([&, v] {
        const std::vector<SessionInputs>& pair = inputs[v / 2];
        if (wire) {
          drive_wire(opt, world.clients[v], grid, v, pair, rounds, logs[v]);
        } else {
          drive_in_process(opt, svc, v, pair, rounds, logs[v]);
        }
      });
    }
    for (std::thread& t : viewers) t.join();
  }
  const u64 loop_t1 = now_ns();

  std::vector<TimedOp> step_ops;
  std::vector<TimedOp> fetch_ops;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (const ViewerLog& log : logs) {
    report.ops(log.attempted, log.failed);
    for (const std::string& e : log.errors) report.note_failure(e);
    step_ops.insert(step_ops.end(), log.steps.begin(), log.steps.end());
    fetch_ops.insert(fetch_ops.end(), log.fetches.begin(), log.fetches.end());
    traced_ms.insert(traced_ms.end(), log.traced_step_ms.begin(),
                     log.traced_step_ms.end());
    untraced_ms.insert(untraced_ms.end(), log.untraced_step_ms.begin(),
                       log.untraced_step_ms.end());
  }

  if (wire) {
    world.clients.clear();  // disconnect every viewer
    for (int spin = 0; spin < 5000 && world.server->active_connections() != 0;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    report.check(world.server->active_connections() == 0,
                 "connections return to 0");
    world.server->stop();
  }
  report.check(svc.active_sessions() == 0, "active sessions return to 0");
  const RequestCoalescer::Stats co = svc.hierarchy().coalescer().stats();
  report.check(co.claims == co.completions, "coalescer claims == completions");

  const MetricsSnapshot m = svc.metrics().snapshot();
  const u64 steps = m.counter("service.steps");
  report.check(steps == step_ops.size(), "service counted every step");
  const u64 dram_hits = m.counter("cache.dram.hits");
  const u64 dram_lookups = dram_hits + m.counter("cache.dram.misses");
  const HistogramSnapshot& sim = m.histogram("service.step.sim_seconds");
  const u64 prefetched = m.counter("service.prefetch.blocks");
  const u64 suppressed = m.counter("service.prefetch.suppressed");

  const LoopWindows windows(loop_t0, loop_t1, host);
  report.timing("setup_s", setup, "s", opt.setups());
  report_loop(windows, step_ops, report);
  report.timing("step_p99_ms", windows.step_ms(step_ops, 0.99), "ms",
                step_ops.size());
  report.timing("fetch_p50_ms", windows.step_ms(fetch_ops, 0.5), "ms",
                fetch_ops.size());
  report.timing("fetch_p99_ms", windows.step_ms(fetch_ops, 0.99), "ms",
                fetch_ops.size());
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("core.sim_step_ms", sim.count ? sim.sum * 1e3 / static_cast<double>(sim.count) : 0.0,
                "sim_ms");
  report.metric("core.prefetch_per_step", ratio(prefetched, steps), "count");
  report.metric("storage.dram_hit_rate", ratio(dram_hits, dram_lookups),
                "fraction");
  report.metric("storage.evictions_per_step",
                ratio(m.counter("cache.dram.evictions") +
                          m.counter("cache.ssd.evictions"),
                      steps),
                "count");
  report.metric("storage.backing_reads_per_step",
                ratio(m.counter("service.hierarchy.demand.backing_reads") +
                          m.counter("service.hierarchy.prefetch.backing_reads"),
                      steps),
                "count");
  report.metric("storage.backing_bytes_per_step",
                ratio(m.counter("service.hierarchy.demand.backing_bytes") +
                          m.counter("service.hierarchy.prefetch.backing_bytes"),
                      steps),
                "bytes");
  report.metric("service.coalesced_frac",
                ratio(m.counter("service.demand.coalesced_hits"),
                      m.counter("service.demand.requests")),
                "fraction");
  report.metric("service.coalescer_waits_per_step",
                ratio(m.counter("service.hierarchy.coalescer.coalesced_waits"),
                      steps),
                "count");
  report.metric("service.prefetch_suppressed_frac",
                ratio(suppressed, prefetched + suppressed), "fraction");
  if (wire) {
    report.metric("net.bytes_per_request",
                  ratio(m.counter("net.bytes.read") + m.counter("net.bytes.written"),
                        m.counter("net.frames.received")),
                  "bytes");
  }

  if (opt.trace) {
    report_trace_overhead(traced_ms, untraced_ms, report);
    report.metric("core.workbench_build_s", median(workbench_s), "s",
                  workbench_s.size());
    std::vector<CameraPath> paths;
    for (const std::vector<SessionInputs>& pair : inputs) {
      for (const SessionInputs& session : pair) {
        CameraPath path;
        for (const ViewerStep& vs : session) path.push_back(vs.camera);
        paths.push_back(std::move(path));
      }
    }
    const double serial_us = run_probes(opt, *world.bench, paths, report);
    report.metric("service.contention_factor",
                  serial_us > 0.0
                      ? percentile(untraced_ms, 0.5) * 1e3 / serial_us
                      : 0.0,
                  "ratio");
    std::vector<const SpanRecorder*> recs;
    for (const ViewerLog& log : logs) recs.push_back(&log.rec);
    write_trace(opt.workload, recs, report);
  }
}

}  // namespace vizcache::e2e
