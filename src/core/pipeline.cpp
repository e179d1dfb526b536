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

usize PlaybackSpec::timestep_at(usize path_index) const {
  const usize t = path_index / steps_per_timestep;
  if (loop) return t % timesteps;
  return std::min(t, timesteps - 1);
}

VizPipeline::VizPipeline(const BlockGrid& grid, MemoryHierarchy hierarchy,
                         PipelineConfig config, const VisibilityTable* table,
                         std::span<const ImportanceTable> importance,
                         const BlockMetadataTable* metadata,
                         PlaybackSpec playback)
    : hierarchy_(std::move(hierarchy)),
      config_(config),
      playback_(playback),
      importance_(importance),
      algorithm1_{&grid, table, nullptr, config.app_aware,
                  config.sigma_bits, config.render_model, config.lookup_cost},
      metadata_(metadata),
      bounds_(grid) {
  VIZ_REQUIRE(playback_.timesteps >= 1, "need at least one timestep");
  VIZ_REQUIRE(playback_.steps_per_timestep >= 1,
              "steps_per_timestep must be >= 1");
  // The packed key space must fit the BlockId type.
  VIZ_REQUIRE(static_cast<u64>(grid.block_count()) * playback_.timesteps <
                  static_cast<u64>(kInvalidBlock),
              "block x timestep key space overflows BlockId");
  if (config_.app_aware) {
    VIZ_REQUIRE(table != nullptr, "app-aware pipeline needs T_visible");
    VIZ_REQUIRE(importance_.size() == playback_.timesteps,
                "app-aware pipeline needs one T_important per timestep");
  }
}

RunResult VizPipeline::run(const CameraPath& path,
                           const QuerySchedule* schedule) {
  VIZ_REQUIRE(!path.empty(), "empty camera path");
  VIZ_REQUIRE(schedule == nullptr || metadata_ != nullptr,
              "query schedules require a block metadata table");
  // The metadata table describes one static field.
  VIZ_REQUIRE(schedule == nullptr || playback_.timesteps == 1,
              "query schedules require a single-timestep playback");
  hierarchy_.reset();

  // Algorithm 1 lines 1-7: importance preloading, of the first timestep
  // (playback starts there).
  if (config_.app_aware && config_.preload_important) {
    MemoryPort port(hierarchy_, 0);
    preload_important(port, *algorithm1_.grid, importance_[0],
                      importance_[0].ranked(), config_.sigma_bits);
  }

  RunResult result;
  result.steps.reserve(path.size());
  const usize nblocks = algorithm1_.grid->block_count();
  Algorithm1Setup setup = algorithm1_;
  SimSeconds clock = 0.0;
  // Steps are 1-based so preloaded blocks (step 0) are evictable at step 1.
  for (usize i = 0; i < path.size(); ++i) {
    const u64 step = i + 1;
    const usize t = playback_.timestep_at(i);
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
      setup.importance = &importance_[t];
      predicted = setup.table->query(path[i].position());
      if (query) {
        std::copy_if(predicted.begin(), predicted.end(),
                     std::back_inserter(matching), [&](BlockId id) {
                       return query->may_match(*metadata_, id);
                     });
        predicted = matching;
      }
    }
    // After the spatial prediction, the temporal one: the playback clock is
    // deterministic, so the current view's blocks at the NEXT timestep are
    // near-certain future requests, queued after the spatial candidates.
    usize next_t = t + 1;
    if (playback_.loop) next_t %= playback_.timesteps;
    const bool time_advances = config_.app_aware &&
                               playback_.temporal_prefetch && next_t != t &&
                               next_t < playback_.timesteps;
    MemoryPort port(hierarchy_, step, TimeBlockKey::pack(0, t, nblocks));
    MemoryPort next_port(hierarchy_, step,
                         TimeBlockKey::pack(0, next_t, nblocks));
    const TrailingPrefetch next{
        &next_port, time_advances ? &importance_[next_t] : nullptr, visible};
    const StepResult sr = algorithm1_step(setup, port, step, visible,
                                          predicted,
                                          time_advances ? &next : nullptr);
    result.steps.push_back(sr);
    record_step_spans(result.timeline, sr, 0, clock, config_.app_aware);
    clock += sr.total_time;
  }

  result.summarize(hierarchy_.stats());
  return result;
}

MemoryHierarchy make_temporal_hierarchy(const BlockGrid& grid,
                                        usize timesteps, double cache_ratio,
                                        PolicyKind policy) {
  const usize nblocks = grid.block_count();
  return MemoryHierarchy::paper_testbed(
      grid.total_bytes() * timesteps, cache_ratio, policy,
      [&grid, nblocks](BlockId key) {
        return grid.block_bytes(TimeBlockKey::spatial(key, nblocks));
      });
}

}  // namespace vizcache
