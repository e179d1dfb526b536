// Multi-session block-service throughput benchmark: N concurrent viewer
// sessions (real threads) against ONE shared MemoryHierarchy behind
// BlockService, versus the same workload on sharded per-session hierarchies
// (each with 1/N of every cache level — the only option before the service
// existed). Camera paths are deterministic seeded random walks; `overlap`
// controls how many sessions walk identical paths and therefore contend for
// the same blocks at the same time.
//
// Reports sessions/s and steps/s, wall-clock p50/p99 step latency, the
// coalesced-read fraction (demand fetches served by waiting on another
// session's in-flight read), and shared-vs-sharded aggregate fast-miss rate
// and backing reads. Writes BENCH_service.json (override with json=path)
// plus bench_service.{trace,metrics}.json observability artifacts.
//
// Extra key=value knobs:
//   sessions=6     concurrent sessions (quick: 4)
//   overlap=0.75   fraction of sessions sharing a path seed [0..1]
//   pace_ms=2      wall-clock width of a leader's in-flight window
//   budget_mb=0    aggregate prefetch budget (0 = unbounded)
//   json=path      output location (default BENCH_service.json)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>

#include "common.hpp"
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

struct RunOutcome {
  std::vector<double> step_ms;        ///< wall latency of every step
  std::vector<SessionSummary> sessions;
  double wall_seconds = 0.0;
  u64 backing_reads = 0;
  u64 fast_hits = 0;
  u64 fast_misses = 0;
  u64 coalesced_hits = 0;
  u64 demand_requests = 0;

  double fast_miss_rate() const {
    const u64 lookups = fast_hits + fast_misses;
    return lookups ? static_cast<double>(fast_misses) /
                         static_cast<double>(lookups)
                   : 0.0;
  }
  double coalesced_fraction() const {
    return demand_requests ? static_cast<double>(coalesced_hits) /
                                 static_cast<double>(demand_requests)
                           : 0.0;
  }
};

void accumulate_hierarchy(RunOutcome& out, const HierarchyStats& hs) {
  out.backing_reads += hs.backing_reads();
  if (!hs.level.empty()) {
    out.fast_hits += hs.level.front().hits;
    out.fast_misses += hs.level.front().misses;
  }
}

/// Drive one session over `path` on `svc`, recording wall step latencies.
SessionSummary drive_session(BlockService& svc, const CameraPath& path,
                             std::vector<double>& step_ms) {
  const auto id = svc.open_session();
  VIZ_CHECK(id.has_value(), "bench session rejected — raise max_sessions");
  step_ms.reserve(path.size());
  u64 coalesced = 0;
  for (const Camera& cam : path) {
    const double t0 = now_ms();
    const SessionStepResult sr = svc.step(*id, cam);
    step_ms.push_back(now_ms() - t0);
    coalesced += sr.coalesced_hits;
  }
  (void)coalesced;
  return svc.close_session(*id);
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("service", argc, argv);
  env.banner("concurrent block service: shared cache vs sharded per-session");

  const usize sessions =
      static_cast<usize>(env.cfg.get_int("sessions", env.quick ? 4 : 6));
  const double overlap = env.cfg.get_double("overlap", 0.75);
  const double pace_ms = env.cfg.get_double("pace_ms", env.quick ? 1.0 : 2.0);
  const u64 budget_mb = static_cast<u64>(env.cfg.get_int("budget_mb", 0));
  const usize steps = env.quick ? 60 : env.positions;

  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = env.quick ? 0.08 : env.scale;
  spec.target_blocks = 256;
  spec.omega = {8, 16, 3, 2.5, 3.5};
  Workbench bench(spec);
  const BlockGrid* grid = &bench.grid();
  const auto size_fn = [grid](BlockId id) { return grid->block_bytes(id); };

  // `overlap` of the sessions reuse seed group 0; the rest get distinct
  // seeds. overlap=1 -> everyone walks the same path, overlap=0 -> all
  // distinct.
  const usize distinct = std::max<usize>(
      usize{1},
      static_cast<usize>(
          std::lround((1.0 - overlap) * static_cast<double>(sessions))));
  std::vector<CameraPath> paths;
  paths.reserve(sessions);
  for (usize s = 0; s < sessions; ++s) {
    paths.push_back(random_path(4.0, 6.0, steps, env.seed + s % distinct));
  }

  ServiceConfig cfg;
  cfg.max_sessions = sessions;
  cfg.app_aware = true;
  cfg.sigma_bits = bench.sigma_bits();
  cfg.render_model = spec.render_model;
  cfg.lookup_cost = spec.lookup_cost;
  cfg.leader_pace_seconds = pace_ms * 1e-3;
  cfg.aggregate_prefetch_budget_bytes = budget_mb * 1024 * 1024;

  // ---- shared: one service, one hierarchy, N session threads ------------
  RunOutcome shared;
  StepTimeline shared_timeline;
  MetricsSnapshot shared_snapshot;
  {
    BlockService svc(*grid, bench.make_hierarchy(PolicyKind::kLru), cfg,
                     &bench.table(), &bench.importance());
    std::vector<std::vector<double>> lat(sessions);
    shared.sessions.resize(sessions);
    const double t0 = now_ms();
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (usize s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        shared.sessions[s] = drive_session(svc, paths[s], lat[s]);
      });
    }
    for (auto& t : threads) t.join();
    shared.wall_seconds = (now_ms() - t0) / 1000.0;
    for (auto& v : lat) shared.step_ms.insert(shared.step_ms.end(), v.begin(), v.end());
    accumulate_hierarchy(shared, svc.hierarchy().stats());
    for (const SessionSummary& s : shared.sessions) {
      shared.coalesced_hits += s.coalesced_hits;
      shared.demand_requests += s.demand_requests;
    }
    shared_timeline = svc.timeline();
    shared_snapshot = svc.metrics().snapshot();
  }

  // ---- sharded: N services, each with 1/N of every cache level ----------
  RunOutcome sharded;
  {
    std::vector<std::unique_ptr<BlockService>> shards;
    shards.reserve(sessions);
    ServiceConfig scfg = cfg;
    scfg.max_sessions = 1;
    // Each session's private budget share, fixed up front.
    scfg.aggregate_prefetch_budget_bytes =
        cfg.aggregate_prefetch_budget_bytes / std::max<usize>(1, sessions);
    for (usize s = 0; s < sessions; ++s) {
      shards.push_back(std::make_unique<BlockService>(
          *grid,
          MemoryHierarchy::paper_testbed(
              std::max<u64>(u64{1}, bench.dataset_bytes() / sessions),
              spec.cache_ratio, PolicyKind::kLru, size_fn),
          scfg, &bench.table(), &bench.importance()));
    }
    std::vector<std::vector<double>> lat(sessions);
    sharded.sessions.resize(sessions);
    const double t0 = now_ms();
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (usize s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        sharded.sessions[s] = drive_session(*shards[s], paths[s], lat[s]);
      });
    }
    for (auto& t : threads) t.join();
    sharded.wall_seconds = (now_ms() - t0) / 1000.0;
    for (auto& v : lat) {
      sharded.step_ms.insert(sharded.step_ms.end(), v.begin(), v.end());
    }
    for (const auto& shard : shards) {
      accumulate_hierarchy(sharded, shard->hierarchy().stats());
    }
    for (const SessionSummary& s : sharded.sessions) {
      sharded.coalesced_hits += s.coalesced_hits;
      sharded.demand_requests += s.demand_requests;
    }
  }

  // ---- report -----------------------------------------------------------
  auto report = [&](const char* name, const RunOutcome& r) {
    return std::vector<std::string>{
        name,
        TablePrinter::fmt(static_cast<double>(sessions) / r.wall_seconds, 2),
        TablePrinter::fmt(static_cast<double>(r.step_ms.size()) / r.wall_seconds, 1),
        TablePrinter::fmt(percentile(r.step_ms, 0.5), 2),
        TablePrinter::fmt(percentile(r.step_ms, 0.99), 2),
        TablePrinter::fmt(100.0 * r.fast_miss_rate(), 2) + "%",
        std::to_string(r.backing_reads),
        TablePrinter::fmt(100.0 * r.coalesced_fraction(), 2) + "%"};
  };
  TablePrinter table({"config", "sessions/s", "steps/s", "p50(ms)", "p99(ms)",
                      "fast-miss", "backing", "coalesced"});
  table.row(report("shared", shared));
  table.row(report("sharded", sharded));
  table.print("block service — " + std::to_string(sessions) + " sessions, " +
              std::to_string(steps) + " steps, overlap " +
              TablePrinter::fmt(overlap, 2) + ", " +
              std::to_string(distinct) + " distinct path(s)");

  const bool wins_miss = shared.fast_miss_rate() < sharded.fast_miss_rate();
  const bool wins_backing = shared.backing_reads < sharded.backing_reads;
  const bool coalesced_nonzero = shared.coalesced_hits > 0;
  std::cout << (wins_miss && wins_backing && coalesced_nonzero ? "PASS"
                                                               : "WARN")
            << ": shared fast-miss "
            << TablePrinter::fmt(100.0 * shared.fast_miss_rate(), 2)
            << "% vs sharded "
            << TablePrinter::fmt(100.0 * sharded.fast_miss_rate(), 2)
            << "%, backing reads " << shared.backing_reads << " vs "
            << sharded.backing_reads << ", coalesced hits "
            << shared.coalesced_hits << "\n";

  auto outcome_json = [&](const RunOutcome& r) {
    JsonObject o;
    o.number("sessions_per_s", static_cast<double>(sessions) / r.wall_seconds)
        .number("steps_per_s",
                static_cast<double>(r.step_ms.size()) / r.wall_seconds)
        .number("p50_step_ms", percentile(r.step_ms, 0.5))
        .number("p99_step_ms", percentile(r.step_ms, 0.99))
        .number("fast_miss_rate", r.fast_miss_rate())
        .integer("backing_reads", static_cast<i64>(r.backing_reads))
        .integer("demand_requests", static_cast<i64>(r.demand_requests))
        .integer("coalesced_hits", static_cast<i64>(r.coalesced_hits))
        .number("coalesced_fraction", r.coalesced_fraction())
        .number("wall_seconds", r.wall_seconds);
    return o;
  };
  JsonObject config;
  config.string("dataset", "3d_ball")
      .number("scale", spec.scale)
      .integer("sessions", static_cast<i64>(sessions))
      .integer("steps", static_cast<i64>(steps))
      .number("overlap", overlap)
      .integer("distinct_paths", static_cast<i64>(distinct))
      .number("pace_ms", pace_ms)
      .integer("budget_mb", static_cast<i64>(budget_mb))
      .integer("seed", static_cast<i64>(env.seed))
      .boolean("quick", env.quick);
  JsonObject root;
  root.string("bench", "service")
      .object("config", std::move(config))
      .object("shared", outcome_json(shared))
      .object("sharded", outcome_json(sharded))
      .boolean("shared_wins_fast_miss", wins_miss)
      .boolean("shared_wins_backing_reads", wins_backing)
      .boolean("coalesced_nonzero", coalesced_nonzero);
  const std::string json_path =
      env.cfg.get_string("json", "BENCH_service.json");
  root.write(json_path);
  std::cout << "# json -> " << json_path << "\n";

  write_observability("bench_service", shared_timeline, shared_snapshot);
  return 0;
}
