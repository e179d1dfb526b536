// Networked serving benchmark: a NetServer in front of one BlockService,
// driven over real loopback TCP by a fleet of blocking NetClients. The fleet
// holds hundreds of connections open simultaneously (each with a live
// session) while a pool of driver threads round-robins STEP and FETCH
// requests through them — so "concurrent connections" is the size of the
// fleet, not the number of in-flight requests.
//
// Between serving rounds a hostile interlude runs connection churn (clean
// and abrupt disconnects), malformed-frame clients, and a slow client that
// stops reading until backpressure drops it. The server must come out of the
// interlude still serving the whole fleet, with every hostile session
// reaped.
//
// Reports sustained req/s, wall-clock p50/p99 step latency, coalesced
// traffic, and the scenario counters. Writes BENCH_net.json (override with
// json=path) plus bench_net.{trace,metrics}.json observability artifacts.
//
// Extra key=value knobs:
//   conns=1024     fleet size (quick: 520)
//   rounds=4       serving rounds over the fleet (quick: 2)
//   drivers=16     driver threads multiplexing the fleet
//   pace_ms=1      wall-clock width of a leader's in-flight window
//   json=path      output location (default BENCH_net.json)

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "service/block_service.hpp"
#include "util/error.hpp"

using namespace vizcache;
using namespace vizcache::bench;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const double rank = p * static_cast<double>(sorted_ms.size() - 1);
  const usize lo = static_cast<usize>(rank);
  const usize hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

/// One fleet connection plus what portion of the shared path it has walked.
struct Viewer {
  NetClient client;
  usize next_step = 0;
};

/// Raise RLIMIT_NOFILE so the fleet + server fds fit. Best effort: if the
/// hard limit is lower than we want, take the hard limit.
void raise_fd_limit(usize want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  const rlim_t target =
      std::min<rlim_t>(lim.rlim_max, static_cast<rlim_t>(want));
  if (lim.rlim_cur < target) {
    lim.rlim_cur = target;
    ::setrlimit(RLIMIT_NOFILE, &lim);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("net", argc, argv);
  env.banner("networked serving front-end: fleet + hostile interlude");

  const usize conns =
      static_cast<usize>(env.cfg.get_int("conns", env.quick ? 520 : 1024));
  const usize rounds =
      static_cast<usize>(env.cfg.get_int("rounds", env.quick ? 2 : 4));
  const usize drivers =
      static_cast<usize>(env.cfg.get_int("drivers", 16));
  const double pace_ms = env.cfg.get_double("pace_ms", 1.0);
  raise_fd_limit(2 * conns + 256);

  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = env.quick ? 0.08 : env.scale;
  spec.target_blocks = 256;
  spec.omega = {8, 16, 3, 2.5, 3.5};
  Workbench bench(spec);
  const BlockGrid* grid = &bench.grid();

  ServiceConfig cfg;
  cfg.max_sessions = conns + 64;  // fleet + hostile-interlude headroom
  cfg.app_aware = true;
  cfg.sigma_bits = bench.sigma_bits();
  cfg.render_model = spec.render_model;
  cfg.lookup_cost = spec.lookup_cost;
  cfg.leader_pace_seconds = pace_ms * 1e-3;
  BlockService svc(*grid, bench.make_hierarchy(PolicyKind::kLru), cfg,
                   &bench.table(), &bench.importance());

  NetServerConfig net_cfg;
  net_cfg.workers = 4;
  net_cfg.max_connections = conns + 64;
  net_cfg.max_write_queue_bytes = 128 * 1024;  // a few block replies deep
  net_cfg.write_stall_timeout_ms = 200;
  net_cfg.so_sndbuf_bytes = 4 * 1024;
  NetServer server(svc, net_cfg);
  server.start();

  // Every viewer walks the SAME seeded path: during the cold first round the
  // fleet's misses pile onto the same blocks, which is what makes the
  // coalescer's wire-visible traffic non-zero.
  const usize path_len = rounds + 1;
  const CameraPath path = random_path(4.0, 6.0, path_len, env.seed);

  // ---- fleet setup: `conns` live connections, each with a session --------
  std::vector<Viewer> fleet(conns);
  std::atomic<u64> requests{0};
  const double t_setup = now_ms();
  {
    std::vector<std::thread> pool;
    pool.reserve(drivers);
    for (usize d = 0; d < drivers; ++d) {
      pool.emplace_back([&, d] {
        for (usize i = d; i < conns; i += drivers) {
          fleet[i].client.connect("127.0.0.1", server.port());
          fleet[i].client.open();
          requests.fetch_add(1);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  const double setup_ms = now_ms() - t_setup;
  const u64 live = svc.metrics().gauge("net.connections.active").value();
  VIZ_CHECK(live == conns, "fleet setup lost connections");

  // ---- serving rounds ----------------------------------------------------
  std::vector<std::vector<double>> lat(drivers);
  std::atomic<u64> coalesced{0};
  const auto serve_round = [&](usize round) {
    std::vector<std::thread> pool;
    pool.reserve(drivers);
    for (usize d = 0; d < drivers; ++d) {
      pool.emplace_back([&, d, round] {
        for (usize i = d; i < conns; i += drivers) {
          const double t0 = now_ms();
          const SessionStepResult sr =
              fleet[i].client.step(path[fleet[i].next_step]);
          lat[d].push_back(now_ms() - t0);
          fleet[i].next_step++;
          coalesced.fetch_add(sr.coalesced_hits);
          requests.fetch_add(1);
          if (i % 4 == 0) {  // a quarter of the fleet also pulls a payload
            (void)fleet[i].client.fetch(static_cast<BlockId>((i + round) % 8));
            requests.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : pool) t.join();
  };

  const double t_serve = now_ms();
  serve_round(0);

  // ---- hostile interlude: churn + malformed + slow, concurrently ---------
  {
    std::vector<std::thread> hostiles;
    hostiles.emplace_back([&] {  // connection churn, clean and abrupt
      for (usize n = 0; n < 12; ++n) {
        NetClient churner;
        churner.connect("127.0.0.1", server.port());
        churner.open();
        (void)churner.step(path[0]);
        if (n % 3 == 0) {
          churner.disconnect();  // abrupt: server must reap the session
        } else {
          churner.close_session();
        }
      }
    });
    hostiles.emplace_back([&] {  // malformed frames
      for (usize n = 0; n < 4; ++n) {
        NetClient hostile;
        hostile.connect("127.0.0.1", server.port());
        hostile.send_raw(std::vector<u8>{5, 0, 0, 0, 0x6B, 1, 2, 3, 4});
        (void)hostile.read_frame();  // the typed error
        hostile.disconnect();
      }
    });
    hostiles.emplace_back([&] {  // slow reader, dropped by backpressure
      NetClient slow;
      slow.connect("127.0.0.1", server.port(), /*so_rcvbuf_bytes=*/2048);
      slow.open();
      for (usize n = 0; n < 20; ++n) {
        slow.send_raw(encode_fetch(static_cast<BlockId>(n % 8)));
      }
      // Never read: the replies jam the write queue until the stall timer
      // fires. Wait for the drop so the metric is deterministic.
      MetricCounter& dropped = svc.metrics().counter("net.backpressure.closed");
      for (int spin = 0; spin < 5000 && dropped.value() == 0; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      slow.disconnect();
    });
    for (auto& t : hostiles) t.join();
  }

  // The fleet must still be fully served after the interlude.
  for (usize r = 1; r < rounds; ++r) serve_round(r);
  const double serve_seconds = (now_ms() - t_serve) / 1000.0;

  // ---- teardown: every fleet session closes cleanly ----------------------
  {
    std::vector<std::thread> pool;
    pool.reserve(drivers);
    for (usize d = 0; d < drivers; ++d) {
      pool.emplace_back([&, d] {
        for (usize i = d; i < conns; i += drivers) {
          (void)fleet[i].client.close_session();
          fleet[i].client.disconnect();
          requests.fetch_add(1);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  // Abrupt hostile disconnects settle asynchronously.
  for (int spin = 0; spin < 5000 && svc.active_sessions() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool sessions_reaped = svc.active_sessions() == 0;
  const bool server_survived = server.running();
  server.stop();

  std::vector<double> step_ms;
  for (auto& v : lat) step_ms.insert(step_ms.end(), v.begin(), v.end());
  const double p50 = percentile(step_ms, 0.5);
  const double p99 = percentile(step_ms, 0.99);
  const double req_per_s = static_cast<double>(requests.load()) / serve_seconds;
  const MetricsSnapshot snapshot = svc.metrics().snapshot();
  const u64 malformed = svc.metrics().counter("net.errors.malformed").value();
  const u64 bp_closed =
      svc.metrics().counter("net.backpressure.closed").value();

  TablePrinter table({"conns", "rounds", "req/s", "p50(ms)", "p99(ms)",
                      "coalesced", "malformed", "bp-drops"});
  table.row({std::to_string(conns), std::to_string(rounds),
             TablePrinter::fmt(req_per_s, 1), TablePrinter::fmt(p50, 2),
             TablePrinter::fmt(p99, 2), std::to_string(coalesced.load()),
             std::to_string(malformed), std::to_string(bp_closed)});
  table.print("net serving — " + std::to_string(conns) +
              " concurrent connections, setup " +
              TablePrinter::fmt(setup_ms / 1000.0, 2) + "s");

  const bool pass = server_survived && sessions_reaped &&
                    coalesced.load() > 0 && malformed > 0 && bp_closed > 0;
  std::cout << (pass ? "PASS" : "WARN") << ": survived=" << server_survived
            << " reaped=" << sessions_reaped << " coalesced="
            << coalesced.load() << " malformed=" << malformed
            << " bp_drops=" << bp_closed << "\n";

  JsonObject config;
  config.string("dataset", "3d_ball")
      .number("scale", spec.scale)
      .integer("conns", static_cast<i64>(conns))
      .integer("rounds", static_cast<i64>(rounds))
      .integer("drivers", static_cast<i64>(drivers))
      .number("pace_ms", pace_ms)
      .integer("seed", static_cast<i64>(env.seed))
      .boolean("quick", env.quick);
  JsonObject serving;
  serving.number("req_per_s", req_per_s)
      .number("steps_per_s",
              static_cast<double>(step_ms.size()) / serve_seconds)
      .number("p50_step_ms", p50)
      .number("p99_step_ms", p99)
      .number("setup_seconds", setup_ms / 1000.0)
      .number("serve_seconds", serve_seconds)
      .integer("concurrent_connections", static_cast<i64>(live))
      .integer("coalesced_hits", static_cast<i64>(coalesced.load()));
  JsonObject scenarios;
  scenarios.integer("malformed_frames", static_cast<i64>(malformed))
      .integer("backpressure_drops", static_cast<i64>(bp_closed))
      .boolean("sessions_reaped", sessions_reaped)
      .boolean("server_survived", server_survived);
  JsonObject root;
  root.string("bench", "net")
      .object("config", std::move(config))
      .object("serving", std::move(serving))
      .object("scenarios", std::move(scenarios))
      .boolean("coalesced_nonzero", coalesced.load() > 0)
      .boolean("pass", pass);
  const std::string json_path = env.cfg.get_string("json", "BENCH_net.json");
  root.write(json_path);
  std::cout << "# json -> " << json_path << "\n";

  write_observability("bench_net", svc.timeline(), snapshot);
  return 0;
}
