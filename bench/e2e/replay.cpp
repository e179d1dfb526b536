// replay_local / replay_jumpy: the paper's Fig. 13 world, driven one cold
// Workbench::run_app_aware per seeded random path. Single-threaded, so the
// simulated metrics repeat exactly at a fixed seed and size.

#include <optional>

#include "workloads.hpp"

namespace vizcache::e2e {

namespace {

constexpr usize kPositions = 400;

/// Simulated-clock totals over every replayed path.
struct SimTotals {
  u64 steps = 0;
  SimSeconds total_time = 0.0;
  u64 dram_hits = 0;
  u64 dram_misses = 0;
  u64 evictions = 0;
  u64 backing_reads = 0;
  u64 backing_bytes = 0;
  u64 prefetch_requests = 0;

  /// Adds one run's exported counters; returns its demand request count.
  u64 add(const RunResult& run) {
    const MetricsSnapshot& m = run.metrics;
    steps += m.counter("pipeline.steps");
    total_time += run.total_time;
    dram_hits += m.counter("cache.dram.hits");
    dram_misses += m.counter("cache.dram.misses");
    evictions += m.counter("cache.dram.evictions") +
                 m.counter("cache.ssd.evictions");
    backing_reads += m.counter("hierarchy.demand.backing_reads") +
                     m.counter("hierarchy.prefetch.backing_reads");
    backing_bytes += m.counter("hierarchy.demand.backing_bytes") +
                     m.counter("hierarchy.prefetch.backing_bytes");
    prefetch_requests += m.counter("hierarchy.prefetch.requests");
    return m.counter("hierarchy.demand.requests");
  }
};

bool same_simulation(const RunResult& a, const RunResult& b) {
  return a.total_time == b.total_time && a.io_time == b.io_time &&
         a.prefetch_time == b.prefetch_time &&
         a.fast_miss_rate == b.fast_miss_rate &&
         a.hierarchy.backing_reads() == b.hierarchy.backing_reads() &&
         a.hierarchy.demand_requests == b.hierarchy.demand_requests &&
         a.hierarchy.prefetch_requests == b.hierarchy.prefetch_requests;
}

}  // namespace

void run_replay(const Options& opt, bool jumpy, Report& report) {
  const double lo = jumpy ? 25.0 : 5.0;
  const double hi = jumpy ? 30.0 : 10.0;
  const usize path_count = opt.count(jumpy ? 150 : 200, 2);

  std::vector<CameraPath> paths;
  paths.reserve(path_count);
  for (usize i = 0; i < path_count; ++i) {
    paths.push_back(random_path(lo, hi, kPositions, derive_seed(opt.seed, i)));
  }

  const WorkbenchSpec spec = replay_spec(0.5 * (lo + hi));
  HostSpeed host(opt.setups() + path_count, false);
  std::optional<Workbench> world;
  const Timing setup = time_setups(opt, host, [&] {
    world.reset();
    const u64 t0 = now_ns();
    world.emplace(spec);
    return seconds_since(t0);
  });

  // The first path's visible sets from an index of the bench's own: the
  // program must demand exactly these blocks.
  u64 first_path_visible = 0;
  {
    const BlockBoundsIndex index(world->grid());
    for (const Camera& cam : paths.front()) {
      first_path_visible += index.visible_blocks(cam).size();
    }
  }

  // Warm-up: the first path once, untimed. Its simulated metrics must match
  // the timed run of the same path bit for bit.
  const RunResult warm = world->run_app_aware(paths.front());

  SpanRecorder rec(0, path_count);
  SimTotals sim;
  std::optional<RunResult> first;
  std::vector<TimedOp> ops;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  u64 failed = 0;
  const u64 loop_t0 = now_ns();
  for (usize i = 0; i < path_count; ++i) {
    TimedOp op{now_ns(), 0, static_cast<double>(kPositions)};
    try {
      RunResult run = [&] {
        SpanScope span(opt.traced(i) ? &rec : nullptr, "core.run_app_aware", i);
        return world->run_app_aware(paths[i]);
      }();
      op.end_ns = now_ns();
      ops.push_back(op);
      (opt.traced(i) ? traced_ms : untraced_ms).push_back(op.step_ms());
      u64 visible = 0;
      for (const StepResult& s : run.steps) visible += s.visible_blocks;
      if (sim.add(run) != visible || run.steps.size() != kPositions) {
        ++failed;
        report.note_failure("path " + std::to_string(i) +
                            ": demand requests differ from its visible blocks");
      }
      if (i == 0) first = std::move(run);
    } catch (const std::exception& e) {
      ++failed;
      report.note_failure(std::string("run_app_aware threw: ") + e.what());
    }
    host.sample();
  }
  const u64 loop_t1 = now_ns();
  report.ops(path_count, failed);

  if (first) {
    report.check(first->metrics.counter("hierarchy.demand.requests") ==
                     first_path_visible,
                 "first path demands exactly its visible blocks");
    report.check(same_simulation(*first, warm),
                 "first path run twice gives bit-identical simulated metrics");
  }

  const double steps = static_cast<double>(sim.steps);
  const double lookups = static_cast<double>(sim.dram_hits + sim.dram_misses);
  report.timing("setup_s", setup, "s", opt.setups());
  report_loop(LoopWindows(loop_t0, loop_t1, host), ops, report);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("core.sim_step_ms", sim.total_time * 1e3 / steps, "sim_ms", 0,
                true);
  report.metric("core.prefetch_per_step",
                static_cast<double>(sim.prefetch_requests) / steps, "count", 0,
                true);
  report.metric("storage.dram_hit_rate",
                lookups > 0 ? static_cast<double>(sim.dram_hits) / lookups : 0.0,
                "fraction", 0, true);
  report.metric("storage.evictions_per_step",
                static_cast<double>(sim.evictions) / steps, "count", 0, true);
  report.metric("storage.backing_reads_per_step",
                static_cast<double>(sim.backing_reads) / steps, "count", 0,
                true);
  report.metric("storage.backing_bytes_per_step",
                static_cast<double>(sim.backing_bytes) / steps, "bytes", 0,
                true);

  if (opt.trace) {
    report_trace_overhead(traced_ms, untraced_ms, report);
    report.metric("core.workbench_build_s", setup.wall, "s", opt.setups());
    run_probes(opt, *world, paths, report);
    write_trace(opt.workload, {&rec}, report);
  }
}

}  // namespace vizcache::e2e
