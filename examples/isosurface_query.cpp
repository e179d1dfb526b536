// Iso-surface query explorer: the paper's Fig. 1 (d)/(e) workload.
//
// A scientist studies an iso-surface of the mixture-fraction field in the
// combustion stand-in dataset, retuning the iso-value and adding compound
// range constraints mid-exploration. Each retune changes the set of blocks
// the renderer needs — the "data-dependent operations" whose access pattern
// conventional caches cannot predict. Block min/max metadata culls blocks
// that cannot contain the surface; the pipeline compares FIFO/LRU/OPT under
// the changing query schedule, and one frame per query phase is rendered
// with an iso-band transfer function for visual confirmation.
//
// Run:  ./isosurface_query [positions=120] [scale=0.1] [blocks=512]
//       [frames_dir=/tmp/vizcache_iso]

#include <filesystem>
#include <iostream>

#include "core/workbench.hpp"
#include "render/raycaster.hpp"
#include "util/config.hpp"
#include "util/table_printer.hpp"

using namespace vizcache;

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  usize positions = static_cast<usize>(cfg.get_int("positions", 120));
  std::string frames_dir = cfg.get_string("frames_dir", "/tmp/vizcache_iso");

  WorkbenchSpec spec;
  spec.dataset = DatasetId::kLiftedMixFrac;
  spec.scale = cfg.get_double("scale", 0.1);
  spec.target_blocks = static_cast<usize>(cfg.get_int("blocks", 512));
  spec.omega = {10, 20, 3, 2.5, 3.5};
  spec.path_step_deg = 4.0;
  Workbench bench(spec);

  // The user's exploration: orbit slowly, changing the query three times.
  RandomPathSpec rp;
  rp.step_min_deg = 3.0;
  rp.step_max_deg = 5.0;
  rp.positions = positions;
  CameraPath path = make_random_path(rp);

  std::vector<QueryChange> changes{
      {0, RegionQuery::iso_surface(0, 0.5f, 0.05f)},
      {positions / 3, RegionQuery::iso_surface(0, 0.85f, 0.05f)},
      {2 * positions / 3,
       RegionQuery::range(0, 0.4f, 0.6f).and_range(0, 0.0f, 0.99f)},
  };
  QuerySchedule schedule(changes);

  std::cout << "query schedule:\n";
  for (const QueryChange& c : changes) {
    std::cout << "  step " << c.step << ": " << c.query.to_string() << "\n";
  }
  std::cout << "\n";

  // How many blocks can metadata culling skip per query?
  TablePrinter culling({"query", "candidate blocks", "of total"});
  for (const QueryChange& c : changes) {
    usize n = c.query.candidate_blocks(bench.metadata()).size();
    culling.row({c.query.to_string(), std::to_string(n),
                 TablePrinter::pct(static_cast<double>(n) /
                                   static_cast<double>(
                                       bench.grid().block_count()))});
  }
  culling.print("min/max metadata culling");
  std::cout << "\n";

  // Policy comparison under the changing query.
  TablePrinter table({"method", "miss_rate", "io(s)", "prefetch(s)",
                      "total(s)"});
  auto report = [&](const std::string& name, const RunResult& r) {
    table.row({name, TablePrinter::fmt(r.fast_miss_rate, 4),
               TablePrinter::fmt(r.io_time, 2),
               TablePrinter::fmt(r.prefetch_time, 2),
               TablePrinter::fmt(r.total_time, 2)});
  };
  report("FIFO", bench.run_baseline(PolicyKind::kFifo, path, &schedule));
  report("LRU", bench.run_baseline(PolicyKind::kLru, path, &schedule));
  report("OPT (app-aware)", bench.run_app_aware(path, &schedule));
  table.print("iso-surface exploration with mid-path query retunes");

  // Transfer-function inversion: the same culling works for an arbitrary
  // piecewise-linear TF — the "fire" preset maps values below ~0.3 to zero
  // opacity, so those blocks never need staging.
  auto tf_queries =
      queries_from_transfer_function(TransferFunction::fire(), 0, 0.02f);
  usize tf_needed = 0;
  for (BlockId id = 0; id < bench.grid().block_count(); ++id) {
    if (tf_may_need_block(tf_queries, bench.metadata(), id)) ++tf_needed;
  }
  std::cout << "\nfire transfer function inverts to " << tf_queries.size()
            << " value interval(s); " << tf_needed << "/"
            << bench.grid().block_count()
            << " blocks can contribute visible samples\n\n";

  // Visual confirmation: render one frame per query phase with an iso-band
  // transfer function over the workbench's bricks. A narrow band has steep
  // opacity edges, so its LUT needs 16384 entries instead of the default
  // 1024 to stay within the golden tolerance of the exact function.
  std::filesystem::create_directories(frames_dir);
  ResidentBrickSet bricks(bench.grid());
  bricks.load_all(bench.store());
  RaycastParams rparams;
  rparams.image_width = 128;
  rparams.image_height = 128;
  rparams.step_size = 0.02;
  for (usize i = 0; i < changes.size(); ++i) {
    const RangeClause& clause = changes[i].query.clauses().front();
    const TransferFunctionLUT lut(
        TransferFunction::iso_band(clause.lo, clause.hi,
                                   {1.0f, 0.45f, 0.1f, 0.85f}),
        rparams.step_size, 16384);
    Image img = raycast_packet(path[changes[i].step], bricks, lut, rparams);
    std::string out = frames_dir + "/iso_phase" + std::to_string(i) + ".ppm";
    img.write_ppm(out);
    std::cout << "phase " << i << " frame: " << out << " (coverage "
              << TablePrinter::pct(img.coverage()) << ")\n";
  }
  return 0;
}
