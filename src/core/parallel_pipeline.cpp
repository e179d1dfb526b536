#include "core/parallel_pipeline.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vizcache {

ParallelPipeline::ParallelPipeline(const BlockGrid& grid, Partition partition,
                                   PipelineConfig config, double cache_ratio,
                                   const VisibilityTable* table,
                                   const ImportanceTable* importance)
    : partition_(std::move(partition)),
      config_(config),
      algorithm1_{&grid, table, importance, config.app_aware,
                  config.sigma_bits, config.render_model, config.lookup_cost},
      bounds_(grid) {
  VIZ_REQUIRE(partition_.block_count() == grid.block_count(),
              "partition/grid block count mismatch");
  if (config_.app_aware) {
    VIZ_REQUIRE(table != nullptr && importance != nullptr,
                "app-aware parallel pipeline needs both tables");
  }
  // Each worker owns 1/N of the dataset and 1/N of every cache level.
  const usize n = partition_.worker_count();
  hierarchies_.reserve(n);
  for (usize w = 0; w < n; ++w) {
    hierarchies_.push_back(MemoryHierarchy::paper_testbed(
        std::max<u64>(1, grid.total_bytes() / n), cache_ratio, config_.policy,
        [g = &grid](BlockId id) { return g->block_bytes(id); }));
  }
}

MemoryHierarchy& ParallelPipeline::worker_hierarchy(usize w) {
  VIZ_REQUIRE(w < hierarchies_.size(), "worker index out of range");
  return hierarchies_[w];
}

ParallelRunResult ParallelPipeline::run(const CameraPath& path) {
  VIZ_REQUIRE(!path.empty(), "empty camera path");
  const usize n = partition_.worker_count();
  for (MemoryHierarchy& h : hierarchies_) h.reset();

  ParallelRunResult result;
  result.workers.assign(n, {});
  result.steps.reserve(path.size());
  SimSeconds clock = 0.0;

  // Every block list is split by owner: each worker runs Algorithm 1 over
  // its own slice, against its own hierarchy and DRAM budget.
  std::vector<std::vector<BlockId>> visible(n), predicted(n);
  auto slice = [this](std::span<const BlockId> ids,
                      std::vector<std::vector<BlockId>>& slices) {
    for (std::vector<BlockId>& s : slices) s.clear();
    for (BlockId id : ids) slices[partition_.owner(id)].push_back(id);
  };

  // Preload: each worker stages its own most-important blocks.
  if (config_.app_aware && config_.preload_important) {
    std::vector<std::vector<BlockId>> ranked(n);
    slice(algorithm1_.importance->ranked(), ranked);
    for (usize w = 0; w < n; ++w) {
      MemoryPort port(hierarchies_[w], 0);
      preload_important(port, *algorithm1_.grid, *algorithm1_.importance,
                        ranked[w], config_.sigma_bits);
    }
  }

  SimSeconds summed_io_work = 0.0;  // for fetch_speedup
  std::vector<StepResult> worker_steps(n);

  for (usize i = 0; i < path.size(); ++i) {
    const u64 step = i + 1;
    const std::vector<BlockId> view = bounds_.visible_blocks(path[i]);
    slice(view, visible);
    std::span<const BlockId> prediction;
    if (config_.app_aware) {
      prediction = algorithm1_.table->query(path[i].position());
    }
    slice(prediction, predicted);

    // The step's times are makespans: the slowest worker's fetch, render
    // (plus compositing ~ the base cost) and prefetch.
    StepResult sr;
    sr.step = step;
    sr.visible_blocks = view.size();
    for (usize w = 0; w < n; ++w) {
      MemoryPort port(hierarchies_[w], step);
      const StepResult& ws = worker_steps[w] = algorithm1_step(
          algorithm1_, port, step, visible[w], predicted[w]);
      WorkerStats& stats = result.workers[w];
      if (algorithm1_.importance) {
        for (BlockId id : visible[w]) {
          stats.entropy_load += algorithm1_.importance->entropy(id);
        }
      }
      stats.io_time += ws.io_time;
      stats.blocks_fetched += ws.visible_blocks;
      stats.prefetch_time += ws.prefetch_time;
      summed_io_work += ws.io_time;
      sr.fast_misses += ws.fast_misses;
      sr.prefetched += ws.prefetched;
      sr.io_time = std::max(sr.io_time, ws.io_time);
      sr.render_time = std::max(sr.render_time, ws.render_time);
      sr.prefetch_time = std::max(sr.prefetch_time, ws.prefetch_time);
      sr.lookup_time = ws.lookup_time;
    }
    sr.total_time = step_total_time(sr, config_.app_aware);

    // Timeline: each worker fetches its share from `clock`, then all join at
    // the fetch barrier (the step's I/O makespan) and render concurrently.
    // The shared T_visible lookup runs once (worker 0's overlap lane), then
    // each worker prefetches its share during the render.
    const SimSeconds render_start = clock + sr.io_time;
    const SimSeconds prefetch_start = render_start + sr.lookup_time;
    if (config_.app_aware) {
      result.timeline.record({StepEvent::Kind::kLookup, step, 0, render_start,
                              prefetch_start, 0});
    }
    for (usize w = 0; w < n; ++w) {
      const StepResult& ws = worker_steps[w];
      const auto lane = static_cast<u32>(w);
      if (ws.visible_blocks > 0) {
        result.timeline.record({StepEvent::Kind::kFetch, step, lane, clock,
                                clock + ws.io_time, ws.visible_blocks});
      }
      result.timeline.record({StepEvent::Kind::kRender, step, lane,
                              render_start, render_start + ws.render_time, 0});
      if (ws.prefetched > 0) {
        result.timeline.record({StepEvent::Kind::kPrefetch, step, lane,
                                prefetch_start,
                                prefetch_start + ws.prefetch_time,
                                ws.prefetched});
      }
    }

    clock += sr.total_time;
    result.steps.push_back(sr);
  }

  HierarchyStats summed = hierarchies_.front().stats();
  for (usize w = 1; w < n; ++w) summed += hierarchies_[w].stats();
  result.summarize(summed);
  result.fetch_speedup =
      result.io_time > 0.0 ? summed_io_work / result.io_time : 1.0;
  result.metrics.add_counter("pipeline.workers", n);
  result.metrics.add_gauge("pipeline.fetch_speedup", result.fetch_speedup);
  return result;
}

}  // namespace vizcache
