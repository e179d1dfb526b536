// Multi-user demo: four viewers exploring the SAME dataset at the same time
// through one BlockService, i.e. one shared memory hierarchy instead of four
// private ones.
//
// Two of the viewers follow the same tour (think "guided session"), the other
// two wander on their own, so the run shows all three sharing effects:
//   - coalesced reads: a viewer waits on another viewer's in-flight fetch
//     instead of issuing a duplicate backing read;
//   - warm-cache inheritance: a viewer stepping onto ground another viewer
//     already covered finds the blocks resident;
//   - admission control: prefetch beyond each viewer's fair share of the
//     aggregate budget is shed, demand fetches never are.
//
// At exit it writes the service's metrics snapshot to
// multi_user_demo.metrics.json in the working directory; ctest feeds it to
// `tools/check_metrics_snapshot.py --service`.
//
// Run:  ./multi_user_demo [scale=0.08] [steps=40] [budget_kb=64]

#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "core/workbench.hpp"
#include "service/block_service.hpp"
#include "util/config.hpp"
#include "util/table_printer.hpp"
#include "util/units.hpp"

using namespace vizcache;

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  const usize steps = static_cast<usize>(cfg.get_int("steps", 40));

  // One dataset, one set of application-aware tables, shared by everyone.
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = cfg.get_double("scale", 0.08);
  spec.target_blocks = 256;
  spec.omega = {8, 16, 3, 2.5, 3.5};
  Workbench bench(spec);
  const BlockGrid* grid = &bench.grid();

  ServiceConfig svc_cfg;
  svc_cfg.max_sessions = 4;
  svc_cfg.app_aware = true;
  svc_cfg.preload_important = true;
  svc_cfg.sigma_bits = bench.sigma_bits();
  svc_cfg.render_model = spec.render_model;
  svc_cfg.lookup_cost = spec.lookup_cost;
  svc_cfg.leader_pace_seconds = 1e-3;  // make in-flight windows observable
  // Small enough that each viewer's fair share (budget / 4) covers only a
  // couple of blocks per step — so the shed column is non-zero.
  svc_cfg.aggregate_prefetch_budget_bytes =
      static_cast<u64>(cfg.get_int("budget_kb", 64)) * 1024;

  BlockService service(*grid, bench.make_hierarchy(PolicyKind::kLru),
                       svc_cfg, &bench.table(), &bench.importance());

  std::cout << "dataset : " << bench.store().desc().name << " ("
            << format_bytes(bench.dataset_bytes()) << ", "
            << grid->block_count() << " blocks)\n"
            << "viewers : 2 on a guided tour (same path) + 2 free-roaming\n\n";

  // Viewers 0 and 1 share seed 7 (the guided tour); 2 and 3 roam alone.
  const u64 seeds[4] = {7, 7, 21, 35};
  std::vector<CameraPath> paths;
  for (u64 seed : seeds) {
    RandomPathSpec rp;
    rp.step_min_deg = 4.0;
    rp.step_max_deg = 6.0;
    rp.positions = steps;
    rp.seed = seed;
    paths.push_back(make_random_path(rp));
  }

  std::vector<SessionSummary> summaries(paths.size());
  std::vector<std::thread> viewers;
  for (usize v = 0; v < paths.size(); ++v) {
    viewers.emplace_back([&, v] {
      const auto id = service.open_session();
      if (!id) return;  // admission control said no
      for (const Camera& cam : paths[v]) service.step(*id, cam);
      summaries[v] = service.close_session(*id);
    });
  }
  for (auto& t : viewers) t.join();

  TablePrinter table({"viewer", "path", "steps", "demand", "fast-miss",
                      "coalesced", "prefetched", "shed"});
  const char* labels[4] = {"tour-a", "tour-b", "free-a", "free-b"};
  for (usize v = 0; v < summaries.size(); ++v) {
    const SessionSummary& s = summaries[v];
    table.row({labels[v], "seed " + std::to_string(seeds[v]),
               std::to_string(s.steps), std::to_string(s.demand_requests),
               std::to_string(s.fast_misses), std::to_string(s.coalesced_hits),
               std::to_string(s.prefetched), std::to_string(s.prefetch_shed)});
  }
  table.print("multi_user_demo — one shared hierarchy, 4 concurrent viewers");

  const HierarchyStats hs = service.hierarchy().stats();
  const auto coalesced =
      service.metrics().counter("service.demand.coalesced_hits").value();
  std::cout << "\nshared cache : "
            << TablePrinter::pct(hs.fast_miss_rate()) << " fast-miss, "
            << hs.backing_reads() << " backing reads for "
            << hs.demand_requests << " demand requests\n"
            << "coalescing   : " << coalesced
            << " demand fetches were served by waiting on another viewer's "
               "in-flight read\n"
            << "\nThe tour viewers ride each other's reads (coalesced > 0); "
               "the free viewers\nstill inherit whatever overlaps their "
               "route. A per-viewer cache of the same\ntotal size would read "
               "every shared block once per viewer instead.\n";

  const std::string metrics_path = "multi_user_demo.metrics.json";
  service.metrics().snapshot().write_json(metrics_path);
  std::cout << "metrics      : " << metrics_path << "\n";
  return 0;
}
