#include "core/temporal.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vizcache {

TemporalPipeline::TemporalPipeline(
    const BlockGrid& grid, MemoryHierarchy hierarchy, TemporalConfig config,
    PlaybackSpec playback, const VisibilityTable* table,
    const std::vector<ImportanceTable>* importance_per_step)
    : grid_(grid),
      hierarchy_(std::move(hierarchy)),
      config_(config),
      playback_(playback),
      importance_(importance_per_step),
      algorithm1_{&grid, table, nullptr, config.app_aware,
                  config.sigma_bits, config.render_model, config.lookup_cost},
      bounds_(grid) {
  VIZ_REQUIRE(playback_.timesteps >= 1, "need at least one timestep");
  VIZ_REQUIRE(playback_.steps_per_timestep >= 1,
              "steps_per_timestep must be >= 1");
  // The packed key space must fit the BlockId type.
  VIZ_REQUIRE(static_cast<u64>(grid.block_count()) * playback_.timesteps <
                  static_cast<u64>(kInvalidBlock),
              "block x timestep key space overflows BlockId");
  if (config_.app_aware) {
    VIZ_REQUIRE(table != nullptr, "app-aware temporal pipeline needs T_visible");
    VIZ_REQUIRE(importance_ != nullptr &&
                    importance_->size() == playback_.timesteps,
                "app-aware temporal pipeline needs one importance table per "
                "timestep");
  }
}

usize TemporalPipeline::timestep_at(usize path_index) const {
  usize t = path_index / playback_.steps_per_timestep;
  if (playback_.loop) return t % playback_.timesteps;
  return std::min(t, playback_.timesteps - 1);
}

RunResult TemporalPipeline::run(const CameraPath& path) {
  VIZ_REQUIRE(!path.empty(), "empty camera path");
  hierarchy_.reset();

  // Preload: the most important blocks of the FIRST timestep (playback
  // starts there).
  const usize nblocks = grid_.block_count();
  if (config_.app_aware && config_.preload_important) {
    const ImportanceTable& imp0 = (*importance_)[0];
    MemoryPort port(hierarchy_, 0);
    preload_important(port, grid_, imp0, imp0.ranked(), config_.sigma_bits);
  }

  RunResult result;
  result.steps.reserve(path.size());
  for (usize i = 0; i < path.size(); ++i) {
    const u64 step = i + 1;
    const usize t = timestep_at(i);
    const BlockId base = TimeBlockKey::pack(0, t, nblocks);
    const std::vector<BlockId> visible = bounds_.visible_blocks(path[i]);
    MemoryPort port(hierarchy_, step, base);
    if (!config_.app_aware) {
      result.steps.push_back(
          algorithm1_step(algorithm1_, port, step, visible, {}));
      continue;
    }
    // Spatial prediction at the current timestep (paper Algorithm 1), then
    // the temporal one: the playback clock is deterministic, so the current
    // view's blocks at the NEXT timestep are near-certain future requests,
    // queued after the spatial candidates.
    Algorithm1Setup setup = algorithm1_;
    setup.importance = &(*importance_)[t];
    const std::vector<BlockId>& predicted =
        setup.table->query(path[i].position());
    usize next_t = t + 1;
    if (playback_.loop) next_t %= playback_.timesteps;
    const bool time_advances = config_.temporal_prefetch && next_t != t &&
                               next_t < playback_.timesteps;
    MemoryPort next_port(hierarchy_, step,
                         TimeBlockKey::pack(0, next_t, nblocks));
    const TrailingPrefetch next{
        &next_port, time_advances ? &(*importance_)[next_t] : nullptr, visible};
    result.steps.push_back(algorithm1_step(setup, port, step, visible,
                                           predicted,
                                           time_advances ? &next : nullptr));
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
