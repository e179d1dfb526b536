#include "core/pipeline.hpp"

#include <algorithm>
#include <iterator>

#include "util/error.hpp"

namespace vizcache {

void RunResult::summarize(const HierarchyStats& stats) {
  hierarchy = stats;
  fast_miss_rate = stats.fast_miss_rate();
  total_miss_rate = stats.total_miss_rate();
  MetricHistogram step_hist(latency_seconds_bounds());
  for (const StepResult& s : steps) {
    io_time += s.io_time;
    lookup_time += s.lookup_time;
    prefetch_time += s.prefetch_time;
    render_time += s.render_time;
    total_time += s.total_time;
    step_hist.observe(s.total_time);
  }
  metrics.add_counter("pipeline.steps", steps.size());
  metrics.add_gauge("pipeline.io_seconds", io_time);
  metrics.add_gauge("pipeline.lookup_seconds", lookup_time);
  metrics.add_gauge("pipeline.prefetch_seconds", prefetch_time);
  metrics.add_gauge("pipeline.render_seconds", render_time);
  metrics.add_gauge("pipeline.total_seconds", total_time);
  metrics.add_gauge("pipeline.fast_miss_rate", fast_miss_rate);
  metrics.add_histogram("pipeline.step.total_seconds", step_hist.snapshot());
  report_metrics(hierarchy, "hierarchy", metrics);
}

VizPipeline::VizPipeline(const BlockGrid& grid, MemoryHierarchy hierarchy,
                         PipelineConfig config, const VisibilityTable* table,
                         const ImportanceTable* importance,
                         const BlockMetadataTable* metadata)
    : hierarchy_(std::move(hierarchy)),
      config_(config),
      algorithm1_{&grid, table, importance, config.app_aware,
                  config.sigma_bits, config.render_model, config.lookup_cost},
      metadata_(metadata),
      bounds_(grid) {
  if (config_.app_aware) {
    VIZ_REQUIRE(table != nullptr, "app-aware pipeline needs T_visible");
    VIZ_REQUIRE(importance != nullptr, "app-aware pipeline needs T_important");
  }
}

RunResult VizPipeline::run(const CameraPath& path,
                           const QuerySchedule* schedule) {
  VIZ_REQUIRE(!path.empty(), "empty camera path");
  VIZ_REQUIRE(schedule == nullptr || metadata_ != nullptr,
              "query schedules require a block metadata table");
  hierarchy_.reset();

  // Algorithm 1 lines 1-7: importance preloading.
  if (config_.app_aware && config_.preload_important) {
    MemoryPort port(hierarchy_, 0);
    preload_important(port, *algorithm1_.grid, *algorithm1_.importance,
                      algorithm1_.importance->ranked(), config_.sigma_bits);
  }

  RunResult result;
  result.steps.reserve(path.size());
  SimSeconds clock = 0.0;
  // Steps are 1-based so preloaded blocks (step 0) are evictable at step 1.
  for (usize i = 0; i < path.size(); ++i) {
    const u64 step = i + 1;
    // Lines 9-13: the exact visible set of this view point. A data-dependent
    // query narrows it to blocks that may contain matching values (min/max
    // metadata culling), and likewise the prediction.
    const RegionQuery* query = schedule ? &schedule->active_at(i) : nullptr;
    const std::vector<BlockId> visible =
        query ? query_visible_blocks(path[i], bounds_, *metadata_, *query)
              : bounds_.visible_blocks(path[i]);
    std::span<const BlockId> predicted;
    std::vector<BlockId> matching;
    if (config_.app_aware) {
      predicted = algorithm1_.table->query(path[i].position());
      if (query) {
        std::copy_if(predicted.begin(), predicted.end(),
                     std::back_inserter(matching), [&](BlockId id) {
                       return query->may_match(*metadata_, id);
                     });
        predicted = matching;
      }
    }
    MemoryPort port(hierarchy_, step);
    const StepResult sr =
        algorithm1_step(algorithm1_, port, step, visible, predicted);
    result.steps.push_back(sr);
    record_step_spans(result.timeline, sr, 0, clock, config_.app_aware);
    clock += sr.total_time;
  }

  result.summarize(hierarchy_.stats());
  return result;
}

}  // namespace vizcache
