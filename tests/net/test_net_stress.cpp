#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "core/workbench.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "util/error.hpp"

namespace vizcache {
namespace {

/// Connection churn + overlapping viewers + hostile clients, all at once,
/// against one live server. Meant for the sanitizer presets: the invariant
/// under test is "no data race, no leaked session, server still serving".
TEST(NetStress, ChurningViewersHostileClientsAndAbruptDisconnects) {
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.08;
  spec.target_blocks = 256;
  spec.omega = {8, 16, 3, 2.5, 3.5};
  Workbench bench(spec);

  ServiceConfig cfg;
  cfg.app_aware = true;
  cfg.sigma_bits = bench.sigma_bits();
  cfg.render_model = bench.spec().render_model;
  cfg.lookup_cost = bench.spec().lookup_cost;
  cfg.max_sessions = 32;
  cfg.leader_pace_seconds = 0.001;  // widen the coalescing window
  const BlockGrid* g = &bench.grid();
  BlockService svc(bench.grid(),
                   MemoryHierarchy::paper_testbed(
                       bench.dataset_bytes(), bench.spec().cache_ratio,
                       PolicyKind::kLru,
                       [g](BlockId id) { return g->block_bytes(id); }),
                   cfg, &bench.table(), &bench.importance());

  NetServerConfig net_cfg;
  net_cfg.workers = 4;
  NetServer server(svc, net_cfg);
  server.start();

  constexpr usize kViewers = 6;
  constexpr usize kChurns = 3;
  constexpr usize kSteps = 4;
  std::atomic<u64> steps_ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kViewers + 2);

  // Same seed for every viewer: overlapping paths make the shared cache and
  // the coalescer actually contend.
  RandomPathSpec rp;
  rp.step_min_deg = 4.0;
  rp.step_max_deg = 6.0;
  rp.positions = kSteps;
  rp.seed = 7;
  const CameraPath p = make_random_path(rp);

  for (usize v = 0; v < kViewers; ++v) {
    threads.emplace_back([&, v] {
      for (usize churn = 0; churn < kChurns; ++churn) {
        NetClient client;
        client.connect("127.0.0.1", server.port());
        client.open();
        for (usize s = 0; s < kSteps; ++s) {
          const SessionStepResult sr = client.step(p[s]);
          if (sr.visible_blocks > 0) steps_ok.fetch_add(1);
          (void)client.fetch(static_cast<BlockId>((v + s) % 8));
        }
        if ((v + churn) % 3 == 0) {
          client.disconnect();  // abrupt: the server must reap the session
        } else {
          client.close_session();
        }
      }
    });
  }
  // One hostile client per churn round: garbage frames, then vanish.
  threads.emplace_back([&] {
    for (usize i = 0; i < kChurns; ++i) {
      NetClient hostile;
      hostile.connect("127.0.0.1", server.port());
      hostile.send_raw(std::vector<u8>{5, 0, 0, 0, 0x6B, 1, 2, 3, 4});
      (void)hostile.read_frame();  // the typed error
      hostile.disconnect();
    }
  });
  // One impatient client that disconnects mid-request.
  threads.emplace_back([&] {
    for (usize i = 0; i < kChurns; ++i) {
      NetClient impatient;
      impatient.connect("127.0.0.1", server.port());
      impatient.send_raw(encode_open());
      impatient.send_raw(encode_step(p[0]));
      impatient.disconnect();  // possibly while the step is in flight
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(steps_ok.load(), kViewers * kChurns * kSteps);
  EXPECT_TRUE(server.running());

  // Every session must be reaped once the disconnects settle.
  for (int i = 0; i < 5000 && svc.active_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(svc.active_sessions(), 0u);
  EXPECT_EQ(svc.hierarchy().coalescer().in_flight_count(), 0u);

  server.stop();
  EXPECT_EQ(server.active_connections(), 0u);
  const u64 opened = svc.metrics().counter("service.sessions.opened").value();
  const u64 closed = svc.metrics().counter("service.sessions.closed").value();
  EXPECT_EQ(opened, closed);
}

/// A fleet of 520 live connections, each with an open session, survives a
/// hostile interlude (churn, malformed frames, a slow reader dropped by
/// backpressure) and is still served in full afterwards. Eight driver
/// threads multiplex the fleet; no thread per connection.
TEST(NetStress, FleetOf520ConnectionsSurvivesHostileInterlude) {
  constexpr usize kConns = 520;
  constexpr usize kDrivers = 8;
  // Client and server end of every connection, plus headroom.
  constexpr rlim_t kFds = 2 * kConns + 256;
  rlimit lim{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
  if (lim.rlim_cur < kFds) {
    lim.rlim_cur = std::min(lim.rlim_max, kFds);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lim), 0);
  }
  ASSERT_GE(lim.rlim_cur, kFds) << "RLIMIT_NOFILE too low for the fleet";

  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.08;
  spec.target_blocks = 256;
  spec.omega = {8, 16, 3, 2.5, 3.5};
  Workbench bench(spec);

  ServiceConfig cfg;
  cfg.app_aware = true;
  cfg.sigma_bits = bench.sigma_bits();
  cfg.render_model = bench.spec().render_model;
  cfg.lookup_cost = bench.spec().lookup_cost;
  cfg.max_sessions = kConns + 64;  // fleet + hostile-interlude headroom
  cfg.leader_pace_seconds = 0.001;
  BlockService svc(bench.grid(), bench.make_hierarchy(PolicyKind::kLru), cfg,
                   &bench.table(), &bench.importance());

  NetServerConfig net_cfg;
  net_cfg.workers = 4;
  net_cfg.max_connections = kConns + 64;
  net_cfg.max_write_queue_bytes = 128 * 1024;  // a few block replies deep
  net_cfg.write_stall_timeout_ms = 200;
  net_cfg.so_sndbuf_bytes = 4 * 1024;
  NetServer server(svc, net_cfg);
  server.start();

  RandomPathSpec rp;
  rp.step_min_deg = 4.0;
  rp.step_max_deg = 6.0;
  rp.positions = 2;
  rp.seed = 42;
  const CameraPath p = make_random_path(rp);

  // A client call throws on a lost connection or an error frame. Count it
  // in the thread that made it (an exception escaping a thread ends the
  // process); the test requires none.
  std::atomic<u64> client_errors{0};
  const auto guarded = [&client_errors](const auto& fn) {
    try {
      fn();
    } catch (const std::exception&) {
      client_errors.fetch_add(1);
    }
  };

  // Runs body(i) for every fleet index, spread over the driver threads.
  std::vector<NetClient> fleet(kConns);
  const auto drive = [&](const auto& body) {
    std::vector<std::thread> drivers;
    drivers.reserve(kDrivers);
    for (usize d = 0; d < kDrivers; ++d) {
      drivers.emplace_back([&, d] {
        for (usize i = d; i < kConns; i += kDrivers) {
          guarded([&] { body(i); });
        }
      });
    }
    for (std::thread& t : drivers) t.join();
  };

  drive([&](usize i) {
    fleet[i].connect("127.0.0.1", server.port());
    fleet[i].open();
  });
  EXPECT_EQ(svc.metrics().gauge("net.connections.active").value(),
            static_cast<double>(kConns));

  std::atomic<u64> steps_ok{0};
  const auto serve_round = [&](usize round) {
    drive([&](usize i) {
      if (fleet[i].step(p[round]).step == round + 1) steps_ok.fetch_add(1);
      if (i % 4 == 0) {  // a quarter of the fleet also pulls a payload
        (void)fleet[i].fetch(static_cast<BlockId>((i + round) % 8));
      }
    });
  };
  serve_round(0);
  EXPECT_EQ(steps_ok.load(), kConns);

  MetricCounter& dropped = svc.metrics().counter("net.backpressure.closed");
  std::vector<std::thread> hostiles;
  hostiles.emplace_back([&] {  // connection churn, clean and abrupt
    guarded([&] {
      for (usize n = 0; n < 12; ++n) {
        NetClient churner;
        churner.connect("127.0.0.1", server.port());
        churner.open();
        (void)churner.step(p[0]);
        if (n % 3 == 0) {
          churner.disconnect();  // abrupt: the server must reap the session
        } else {
          churner.close_session();
        }
      }
    });
  });
  hostiles.emplace_back([&] {  // malformed frames
    guarded([&] {
      for (usize n = 0; n < 4; ++n) {
        NetClient hostile;
        hostile.connect("127.0.0.1", server.port());
        hostile.send_raw(std::vector<u8>{5, 0, 0, 0, 0x6B, 1, 2, 3, 4});
        (void)hostile.read_frame();  // the typed error
        hostile.disconnect();
      }
    });
  });
  hostiles.emplace_back([&] {  // slow reader, dropped by backpressure
    guarded([&] {
      NetClient slow;
      slow.connect("127.0.0.1", server.port(), /*so_rcvbuf_bytes=*/2048);
      slow.open();
      for (usize n = 0; n < 20; ++n) {
        slow.send_raw(encode_fetch(static_cast<BlockId>(n % 8)));
      }
      // Never read: the replies jam the write queue until the stall timer
      // fires.
      for (int spin = 0; spin < 5000 && dropped.value() == 0; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      slow.disconnect();
    });
  });
  for (std::thread& t : hostiles) t.join();

  serve_round(1);
  EXPECT_EQ(steps_ok.load(), 2 * kConns);

  drive([&](usize i) {
    (void)fleet[i].close_session();
    fleet[i].disconnect();
  });
  // Abrupt hostile disconnects settle asynchronously.
  for (int i = 0; i < 5000 && svc.active_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(svc.active_sessions(), 0u);

  server.stop();
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(svc.metrics().counter("net.connections.accepted").value(),
            svc.metrics().counter("net.connections.closed").value());
  EXPECT_GE(svc.metrics().counter("net.errors.malformed").value(), 4u);
  EXPECT_GE(dropped.value(), 1u);
  EXPECT_EQ(client_errors.load(), 0u);
}

}  // namespace
}  // namespace vizcache
