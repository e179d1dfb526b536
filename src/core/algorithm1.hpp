#pragma once

#include <span>

#include "core/importance.hpp"
#include "core/visibility_table.hpp"
#include "render/render_model.hpp"
#include "storage/hierarchy.hpp"
#include "util/step_timeline.hpp"

namespace vizcache {

/// Per-step timing/counters of a pipeline run.
struct StepResult {
  u64 step = 0;
  usize visible_blocks = 0;
  usize fast_misses = 0;        ///< visible blocks not already in fast memory
  usize prefetched = 0;         ///< blocks moved by this step's prefetch pass
  SimSeconds io_time = 0.0;     ///< demand fetch time
  SimSeconds lookup_time = 0.0; ///< T_visible nearest-sample query time
  SimSeconds prefetch_time = 0.0;
  SimSeconds render_time = 0.0;
  /// Step wall time. Baselines: io + render. App-aware: io + max(render,
  /// lookup + prefetch) — prefetching overlaps rendering (paper Section V-D).
  SimSeconds total_time = 0.0;

  bool operator==(const StepResult&) const = default;
};

/// The Algorithm 1 kernel's view of a hierarchy, bound by each driver to its
/// clock (a step, an epoch, a timestep's keys, a worker's slice). The
/// per-block phases are batch calls, so a port over a shared hierarchy can
/// serve each in one critical section; both keep the per-block order. A
/// dropped prefetch (shed or suppressed) costs no budget and is not counted.
class HierarchyPort {
 public:
  /// A demand walk's simulated seconds, summed in list order, and the
  /// blocks it found missing from fast memory.
  struct Fetch { SimSeconds seconds = 0.0; usize fast_misses = 0; };
  struct Prefetch { SimSeconds seconds = 0.0; bool dropped = false; };

  /// Demand-fetches every id of `ids`, in order.
  virtual Fetch fetch_all(std::span<const BlockId> ids) = 0;
  /// Moves the ids of `ids` not resident in fast memory to its front, in
  /// order, and returns their count.
  virtual usize drop_resident(std::span<BlockId> ids) const = 0;
  virtual Prefetch prefetch(BlockId id, u64 bytes) = 0;
  virtual void preload(BlockId id) = 0;  ///< no simulated time charged
  virtual u64 fast_capacity_bytes() const = 0;

 protected:
  ~HierarchyPort() = default;
};

/// Port over a MemoryHierarchy at `step`, both access time and eviction
/// floor (Algorithm 1 line 16). Block `id` is keyed `key_base + id`.
class MemoryPort final : public HierarchyPort {
 public:
  MemoryPort(MemoryHierarchy& hierarchy, u64 step, BlockId key_base = 0)
      : h_(hierarchy), step_(step), base_(key_base) {}
  Fetch fetch_all(std::span<const BlockId> ids) override;
  usize drop_resident(std::span<BlockId> ids) const override;
  Prefetch prefetch(BlockId id, u64 /*bytes*/) override {
    return {h_.prefetch(base_ + id, step_), false};
  }
  void preload(BlockId id) override { h_.preload(base_ + id); }
  u64 fast_capacity_bytes() const override {
    return h_.cache(0).capacity_bytes();
  }

 private:
  MemoryHierarchy& h_;
  u64 step_;
  BlockId base_;
};

/// What the kernel reads besides the hierarchy. The tables may be null
/// when `app_aware` is false.
struct Algorithm1Setup {
  const BlockGrid* grid = nullptr;
  const VisibilityTable* table = nullptr;
  const ImportanceTable* importance = nullptr;
  bool app_aware = false;
  double sigma_bits = 0.0;
  RenderTimeModel render_model;
  LookupCostModel lookup_cost;
};

struct PreloadCounts { u64 scanned = 0, preloaded = 0; };

/// Lines 1-7: stage the `ranked` blocks with entropy above sigma into fast
/// memory, best first. A block too large for what is left is skipped, as a
/// smaller one may still fit; the scan stops at the first block at or below
/// sigma, or once no block ahead can fit.
PreloadCounts preload_important(HierarchyPort& port, const BlockGrid& grid,
                                const ImportanceTable& importance,
                                std::span<const BlockId> ranked,
                                double sigma_bits);

/// A list prefetched, in its own order, after the prediction from the budget
/// it leaves (a time-varying run's next-timestep blocks).
struct TrailingPrefetch {
  HierarchyPort* port = nullptr;
  const ImportanceTable* importance = nullptr;
  std::span<const BlockId> blocks;
};

/// One step. Lines 14-19: demand-fetch `visible`; line 21: render it;
/// line 22 (app-aware): prefetch the `predicted` blocks with entropy above
/// sigma not yet in fast memory, most important first, within the DRAM
/// space the visible set leaves free (Section IV-B). The first block that
/// overflows that budget ends the pass.
StepResult algorithm1_step(const Algorithm1Setup& setup, HierarchyPort& port,
                           u64 step, std::span<const BlockId> visible,
                           std::span<const BlockId> predicted,
                           const TrailingPrefetch* trailing = nullptr);

/// io + max(render, lookup + prefetch), or io + render without overlap.
SimSeconds step_total_time(const StepResult& sr, bool overlapped);

/// The step's spans on `lane` from `start`: fetch, then render, with the
/// app-aware lookup and prefetch overlapping the render.
void record_step_spans(StepTimeline& timeline, const StepResult& sr,
                       u32 lane, SimSeconds start, bool app_aware);

}  // namespace vizcache
