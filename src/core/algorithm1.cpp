#include "core/algorithm1.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace vizcache {

HierarchyPort::Fetch MemoryPort::fetch_all(std::span<const BlockId> ids) {
  Fetch f;
  for (BlockId id : ids) {
    if (!h_.resident_fast(base_ + id)) ++f.fast_misses;
    f.seconds += h_.fetch(base_ + id, step_);
  }
  return f;
}

usize MemoryPort::drop_resident(std::span<BlockId> ids) const {
  usize kept = 0;
  for (BlockId id : ids) {
    if (!h_.resident_fast(base_ + id)) ids[kept++] = id;
  }
  return kept;
}

namespace {

/// Appends, in order, the `ids` worth prefetching: entropy above sigma and
/// not yet in fast memory.
void collect_candidates(const HierarchyPort& port,
                        const ImportanceTable& importance, double sigma_bits,
                        std::span<const BlockId> ids,
                        std::vector<BlockId>& out) {
  const usize from = out.size();
  for (BlockId id : ids) {
    if (importance.entropy(id) <= sigma_bits) continue;
    // analyze: allow(hot-path-alloc): per-step buffer, pre-reserved by the
    // caller; it must stay local, as BlockService::step runs this unlocked
    // and concurrently across sessions, so a hoisted scratch would race.
    out.push_back(id);
  }
  out.resize(from + port.drop_resident(std::span(out).subspan(from)));
}

/// Prefetches `ids` in order until one overflows `budget`. A block the port
/// drops costs no budget.
void prefetch_within(HierarchyPort& port, const BlockGrid& grid,
                     std::span<const BlockId> ids, u64& budget,
                     StepResult& sr) {
  for (BlockId id : ids) {
    const u64 bytes = grid.block_bytes(id);
    if (bytes > budget) break;
    const HierarchyPort::Prefetch p = port.prefetch(id, bytes);
    if (p.dropped) continue;  // shed or suppressed
    budget -= bytes;
    sr.prefetch_time += p.seconds;
    ++sr.prefetched;
  }
}

}  // namespace

PreloadCounts preload_important(HierarchyPort& port, const BlockGrid& grid,
                                const ImportanceTable& importance,
                                std::span<const BlockId> ranked,
                                double sigma_bits) {
  // Suffix minima of the ranked sizes: once the budget is below the
  // smallest block ahead, the scan stops instead of walking the rest.
  std::vector<u64> min_bytes_ahead(ranked.size() + 1,
                                   std::numeric_limits<u64>::max());
  for (usize i = ranked.size(); i-- > 0;) {
    min_bytes_ahead[i] =
        std::min(min_bytes_ahead[i + 1], grid.block_bytes(ranked[i]));
  }
  PreloadCounts counts;
  u64 budget = port.fast_capacity_bytes();
  for (usize i = 0; i < ranked.size() && budget >= min_bytes_ahead[i]; ++i) {
    ++counts.scanned;
    const BlockId id = ranked[i];
    if (importance.entropy(id) <= sigma_bits) break;
    const u64 bytes = grid.block_bytes(id);
    if (bytes > budget) continue;
    port.preload(id);
    ++counts.preloaded;
    budget -= bytes;
  }
  return counts;
}

StepResult algorithm1_step(const Algorithm1Setup& setup, HierarchyPort& port,
                           u64 step, std::span<const BlockId> visible,
                           std::span<const BlockId> predicted,
                           const TrailingPrefetch* trailing) {
  const BlockGrid& grid = *setup.grid;
  StepResult sr;
  sr.step = step;
  sr.visible_blocks = visible.size();
  const HierarchyPort::Fetch f = port.fetch_all(visible);
  sr.fast_misses = f.fast_misses;
  sr.io_time = f.seconds;
  u64 visible_bytes = 0;
  for (BlockId id : visible) visible_bytes += grid.block_bytes(id);
  sr.render_time = setup.render_model.frame_time(visible.size());

  if (setup.app_aware) {
    sr.lookup_time = setup.table->lookup_time(setup.lookup_cost);
    const u64 capacity = port.fast_capacity_bytes();
    u64 budget = capacity > visible_bytes ? capacity - visible_bytes : 0;
    // Both lists are filtered before either is prefetched. The predicted
    // candidates stay in prediction order up to the (unstable) sort, so
    // entropy ties always resolve the same way.
    std::vector<BlockId> candidates;
    candidates.reserve(predicted.size() +
                       (trailing ? trailing->blocks.size() : 0));
    collect_candidates(port, *setup.importance, setup.sigma_bits, predicted,
                       candidates);
    const usize n = candidates.size();
    if (trailing) {
      collect_candidates(*trailing->port, *trailing->importance,
                         setup.sigma_bits, trailing->blocks, candidates);
    }
    const ImportanceTable& imp = *setup.importance;
    std::sort(candidates.begin(),
              candidates.begin() + static_cast<std::ptrdiff_t>(n),
              [&imp](BlockId a, BlockId b) {
                return imp.entropy(a) > imp.entropy(b);
              });
    const std::span<const BlockId> all(candidates);
    prefetch_within(port, grid, all.first(n), budget, sr);
    if (trailing) {
      prefetch_within(*trailing->port, grid, all.subspan(n), budget, sr);
    }
  }
  sr.total_time = step_total_time(sr, setup.app_aware);
  return sr;
}

SimSeconds step_total_time(const StepResult& sr, bool overlapped) {
  return sr.io_time + (overlapped ? std::max(sr.render_time,
                                            sr.lookup_time + sr.prefetch_time)
                                  : sr.render_time);
}

void record_step_spans(StepTimeline& timeline, const StepResult& sr,
                       u32 lane, SimSeconds start, bool app_aware) {
  const SimSeconds render_start = start + sr.io_time;
  timeline.record({StepEvent::Kind::kFetch, sr.step, lane, start,
                   render_start, sr.visible_blocks});
  timeline.record({StepEvent::Kind::kRender, sr.step, lane, render_start,
                   render_start + sr.render_time, 0});
  if (!app_aware) return;
  const SimSeconds lookup_end = render_start + sr.lookup_time;
  timeline.record(
      {StepEvent::Kind::kLookup, sr.step, lane, render_start, lookup_end, 0});
  if (sr.prefetched > 0 || sr.prefetch_time > 0.0) {
    timeline.record({StepEvent::Kind::kPrefetch, sr.step, lane, lookup_end,
                     lookup_end + sr.prefetch_time, sr.prefetched});
  }
}

}  // namespace vizcache
