// Ablation A8 (ours): out-of-core streamline tracing (the related-work
// workload of Ueng et al., paper Section II). Streamlines make long, thin,
// partially-revisiting block access sequences — very different from
// frustum working sets. This bench traces seed batches through the
// synthetic vortex flow under every replacement policy, with and without
// entropy-based preloading of the vortex core.

#include <iostream>
#include <limits>

#include "common.hpp"
#include "core/algorithm1.hpp"
#include "core/importance.hpp"
#include "core/streamline.hpp"
#include "volume/generators.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("ablation_streamline", argc, argv);
  env.banner("Ablation: out-of-core streamline tracing workload");

  const Dims3 dims{96, 96, 96};
  SyntheticVolume flow = make_flow_volume(dims);
  Field3D u = rasterize(flow, 0), v = rasterize(flow, 1), w = rasterize(flow, 2);
  VectorSampler velocity = [&](const Vec3& p) -> std::optional<Vec3> {
    return Vec3{u.sample_normalized(p.x, p.y, p.z),
                v.sample_normalized(p.x, p.y, p.z),
                w.sample_normalized(p.x, p.y, p.z)};
  };

  BlockGrid grid = BlockGrid::with_target_block_count(dims, 1024);
  // Importance over the speed magnitude: the vortex core is the hot region.
  SyntheticBlockStore store(flow, grid.block_dims());
  ImportanceTable importance = ImportanceTable::build(store, 64, 0);

  // Seed rake across the inflow plane.
  Rng rng(env.seed);
  usize seed_count = env.quick ? 16 : 64;
  std::vector<Vec3> seeds;
  for (usize i = 0; i < seed_count; ++i) {
    seeds.push_back({rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), -0.6});
  }
  StreamlineSpec spec;
  spec.step = 0.02;
  spec.max_steps = 800;

  TablePrinter table({"policy", "preload", "miss_rate", "io(s)", "accesses",
                      "unique_blocks"});
  CsvWriter csv(env.csv_path(), {"policy", "preload", "miss_rate", "io_s",
                                 "accesses", "unique_blocks"});

  for (PolicyKind kind : {PolicyKind::kFifo, PolicyKind::kLru,
                          PolicyKind::kClock, PolicyKind::kArc,
                          PolicyKind::kTwoQ}) {
    for (bool preload : {false, true}) {
      MemoryHierarchy hierarchy = MemoryHierarchy::paper_testbed(
          grid.total_bytes(), 0.5, kind,
          [&grid](BlockId id) { return grid.block_bytes(id); });
      if (preload) {
        // Stage the high-importance (vortex-core) blocks ahead of tracing,
        // with no entropy threshold.
        MemoryPort port(hierarchy, 0);
        preload_important(port, grid, importance, importance.ranked(),
                          std::numeric_limits<double>::lowest());
      }
      StreamlineWorkloadResult r =
          run_streamline_workload(grid, hierarchy, seeds, velocity, spec);
      table.row({policy_kind_name(kind), preload ? "yes" : "no",
                 TablePrinter::fmt(r.fast_miss_rate, 4),
                 TablePrinter::fmt(r.io_time, 3),
                 std::to_string(r.total_accesses),
                 std::to_string(r.unique_blocks)});
      csv.row({policy_kind_name(kind), preload ? "yes" : "no",
               CsvWriter::to_cell(r.fast_miss_rate),
               CsvWriter::to_cell(r.io_time),
               CsvWriter::to_cell(static_cast<u64>(r.total_accesses)),
               CsvWriter::to_cell(static_cast<u64>(r.unique_blocks))});
    }
  }

  table.print("Ablation — streamline tracing (" + std::to_string(seeds.size()) +
              " seeds)");
  std::cout << "(importance preloading stages the vortex core the rake flows "
               "through — Observation 2 transfers to flow visualization)\n";
  return 0;
}
