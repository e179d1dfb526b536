// Ablation A5 (ours): time-varying playback (the paper's climate dataset is
// time-varying; handling it is the paper's stated future-work direction).
// While the camera explores, the simulation clock advances every K path
// steps; each advance invalidates the entire working set (same spatial
// blocks, new data). Compares FIFO / LRU / OPT without temporal prefetch /
// OPT with temporal prefetch across playback speeds.

#include <iostream>

#include "common.hpp"
#include "core/pipeline.hpp"

using namespace vizcache;
using namespace vizcache::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("ablation_temporal", argc, argv);
  env.banner("Ablation: time-varying playback (climate), temporal prefetch");

  const usize timesteps = 4;
  SyntheticVolume climate = make_dataset(DatasetId::kClimate, env.scale);
  // Rebuild with a fixed timestep count so playback spans the whole run.
  climate = make_climate_volume(climate.desc.dims,
                                std::max<usize>(4, climate.desc.variables),
                                timesteps);
  BlockGrid grid = BlockGrid::with_target_block_count(climate.desc.dims, 512);
  SyntheticBlockStore store(climate, grid.block_dims());

  std::vector<ImportanceTable> importance;
  for (usize t = 0; t < timesteps; ++t) {
    importance.push_back(ImportanceTable::build(store, 64, 1, t));
  }
  double sigma = importance[0].threshold_for_fraction(0.75);

  VisibilityTableSpec ts;
  ts.omega = {12, 24, 3, 2.5, 3.5};
  ts.vicinal_samples = 6;
  ts.view_angle_deg = 10.0;
  ts.radius_model = {10.0, 0.25, 1e-3};
  ts.path_step_deg = 5.0;
  VisibilityTable table = VisibilityTable::build(grid, ts);

  CameraPath path = random_path(4.0, 6.0, env.positions, env.seed);

  std::vector<usize> speeds{5, 20, 80};
  if (env.quick) speeds = {20};

  TablePrinter out({"steps/timestep", "method", "miss_rate", "io(s)",
                    "total(s)"});
  CsvWriter csv(env.csv_path(), {"steps_per_timestep", "method", "miss_rate",
                                 "io_s", "total_s"});

  auto report = [&](usize speed, const std::string& name, const RunResult& r) {
    out.row({std::to_string(speed), name,
             TablePrinter::fmt(r.fast_miss_rate, 4),
             TablePrinter::fmt(r.io_time, 3),
             TablePrinter::fmt(r.total_time, 3)});
    csv.row({CsvWriter::to_cell(static_cast<u64>(speed)), name,
             CsvWriter::to_cell(r.fast_miss_rate),
             CsvWriter::to_cell(r.io_time), CsvWriter::to_cell(r.total_time)});
  };

  for (usize speed : speeds) {
    PlaybackSpec playback{timesteps, speed, true};

    for (PolicyKind kind : {PolicyKind::kFifo, PolicyKind::kLru}) {
      PipelineConfig cfg;
      cfg.policy = kind;
      VizPipeline p(grid, make_temporal_hierarchy(grid, timesteps, 0.5, kind),
                    cfg, nullptr, {}, nullptr, playback);
      report(speed, policy_kind_name(kind), p.run(path));
    }

    PipelineConfig opt;
    opt.app_aware = true;
    opt.sigma_bits = sigma;
    PlaybackSpec spatial = playback;
    spatial.temporal_prefetch = false;
    VizPipeline ps(grid,
                   make_temporal_hierarchy(grid, timesteps, 0.5, opt.policy),
                   opt, &table, importance, nullptr, spatial);
    report(speed, "OPT(spatial)", ps.run(path));

    VizPipeline pf(grid,
                   make_temporal_hierarchy(grid, timesteps, 0.5, opt.policy),
                   opt, &table, importance, nullptr, playback);
    report(speed, "OPT(+temporal)", pf.run(path));
  }

  out.print("Ablation — time-varying playback");
  std::cout << "(faster playback (fewer steps/timestep) hurts every method; "
               "temporal prefetch recovers the flip-step misses)\n";
  return 0;
}
