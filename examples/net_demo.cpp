// Networked serving demo: a NetServer in front of one BlockService, with
// viewers connecting over real loopback TCP instead of calling the service
// in-process. Two viewers follow the same tour so their demand misses
// coalesce across the wire; a third client misbehaves (garbage frame) to
// show the typed-error handling — the server answers with an error frame,
// closes that connection, and keeps serving everyone else. A fourth client
// requests block payloads and never reads the replies: its write queue
// stalls until backpressure drops the connection.
//
// After the server stops it writes the metrics snapshot to
// net_demo.metrics.json in the working directory; ctest feeds it to
// `tools/check_metrics_snapshot.py --net`.
//
// Run:  ./net_demo [scale=0.08] [steps=12]

#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "core/workbench.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "service/block_service.hpp"
#include "util/config.hpp"
#include "util/table_printer.hpp"

using namespace vizcache;

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  const usize steps = static_cast<usize>(cfg.get_int("steps", 12));

  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = cfg.get_double("scale", 0.08);
  spec.target_blocks = 256;
  spec.omega = {8, 16, 3, 2.5, 3.5};
  Workbench bench(spec);
  const BlockGrid* grid = &bench.grid();

  ServiceConfig svc_cfg;
  svc_cfg.app_aware = true;
  svc_cfg.sigma_bits = bench.sigma_bits();
  svc_cfg.render_model = spec.render_model;
  svc_cfg.lookup_cost = spec.lookup_cost;
  svc_cfg.leader_pace_seconds = 0.001;
  BlockService svc(*grid, bench.make_hierarchy(PolicyKind::kLru), svc_cfg,
                   &bench.table(), &bench.importance());

  // A shallow write queue, a short stall timeout and a small send buffer
  // let the slow reader below trip backpressure within a fraction of a
  // second.
  NetServerConfig net_cfg;
  net_cfg.workers = 4;
  net_cfg.max_write_queue_bytes = 128 * 1024;
  net_cfg.write_stall_timeout_ms = 200;
  net_cfg.so_sndbuf_bytes = 4 * 1024;
  NetServer server(svc, net_cfg);
  server.start();
  std::cout << "net_demo: serving on 127.0.0.1:" << server.port() << "\n";

  // A shared tour: both viewers request the same blocks at the same time.
  RandomPathSpec rp;
  rp.step_min_deg = 4.0;
  rp.step_max_deg = 6.0;
  rp.positions = steps;
  rp.seed = 42;
  const CameraPath tour = make_random_path(rp);

  std::vector<SessionSummary> summaries(2);
  std::vector<std::thread> viewers;
  for (usize v = 0; v < 2; ++v) {
    viewers.emplace_back([&, v] {
      NetClient client;
      client.connect("127.0.0.1", server.port());
      client.open();
      for (const Camera& cam : tour) (void)client.step(cam);
      // Pull one block payload over the wire too.
      (void)client.fetch(0);
      summaries[v] = client.close_session();
    });
  }
  for (auto& t : viewers) t.join();

  // A hostile client: unknown frame type. The server answers with a typed
  // error frame and closes only that connection.
  NetClient hostile;
  hostile.connect("127.0.0.1", server.port());
  hostile.send_raw(std::vector<u8>{5, 0, 0, 0, 0x6B, 1, 2, 3, 4});
  if (const auto reply = hostile.read_frame()) {
    const auto err = decode_error(reply->body);
    std::cout << "hostile client got error frame: "
              << (err ? err->message : std::string("<undecodable>")) << "\n";
  }
  hostile.disconnect();

  // A slow reader: a tiny receive window and 20 FETCHes whose replies it
  // never reads. The server's write queue stalls and the stall timer drops
  // the connection; wait for that so the counter is settled.
  NetClient slow;
  slow.connect("127.0.0.1", server.port(), /*so_rcvbuf_bytes=*/2048);
  slow.open();
  for (usize n = 0; n < 20; ++n) {
    slow.send_raw(encode_fetch(static_cast<BlockId>(n % 8)));
  }
  MetricCounter& dropped = svc.metrics().counter("net.backpressure.closed");
  for (int spin = 0; spin < 5000 && dropped.value() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  slow.disconnect();

  TablePrinter table({"viewer", "steps", "demand", "fast-miss", "coalesced"});
  for (usize v = 0; v < 2; ++v) {
    const SessionSummary& s = summaries[v];
    table.row({"viewer-" + std::to_string(v), std::to_string(s.steps),
               std::to_string(s.demand_requests),
               std::to_string(s.fast_misses),
               std::to_string(s.coalesced_hits)});
  }
  table.print("two wire viewers on one shared tour");

  const u64 coalesced =
      svc.metrics().counter("service.demand.coalesced_hits").value();
  const u64 malformed = svc.metrics().counter("net.errors.malformed").value();
  server.stop();
  std::cout << "coalesced reads across the wire: " << coalesced
            << ", malformed frames rejected: " << malformed
            << ", slow readers dropped: " << dropped.value()
            << ", sessions still open: " << svc.active_sessions() << "\n";

  const std::string metrics_path = "net_demo.metrics.json";
  svc.metrics().snapshot().write_json(metrics_path);
  std::cout << "metrics: " << metrics_path << "\n";
  return 0;
}
