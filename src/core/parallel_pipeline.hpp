#pragma once

#include "core/partitioner.hpp"
#include "core/pipeline.hpp"

namespace vizcache {

/// Per-worker aggregate of a parallel run.
struct WorkerStats {
  u64 blocks_fetched = 0;
  SimSeconds io_time = 0.0;
  SimSeconds prefetch_time = 0.0;
  double entropy_load = 0.0;  ///< summed entropy of demand-fetched blocks
};

/// Whole-run result of a parallel exploration: a RunResult whose steps are
/// the workers' makespans (spans on one lane per worker, `hierarchy` the
/// workers' stats summed), plus the per-worker split.
struct ParallelRunResult : RunResult {
  std::vector<WorkerStats> workers;
  /// Ratio of the summed single-worker work to the makespan-time — the
  /// effective parallel speedup achieved by the partitioning.
  double fetch_speedup = 1.0;
};

/// Parallel fetch/render simulation (the paper's future work, Section VI):
/// N workers each own a partition of the blocks, hold their own slice of
/// the memory hierarchy (capacity split evenly), and fetch/render their
/// share of every view concurrently. A step's I/O time is the *makespan* —
/// the slowest worker — so balance of the per-view working set across
/// workers is what determines parallel efficiency.
///
/// Thread-safety: run() is a deterministic discrete-event simulation driven
/// from the calling thread; per-worker state (hierarchies_) is sharded by
/// worker index so a future real-thread execution of the fetch loop needs no
/// locking beyond a join barrier per step. Concurrent run() calls on one
/// instance are not supported (hierarchies_ is reset per run).
class ParallelPipeline {
 public:
  /// The app-aware variant needs `table` + `importance` (as VizPipeline).
  ParallelPipeline(const BlockGrid& grid, Partition partition,
                   PipelineConfig config, double cache_ratio,
                   const VisibilityTable* table = nullptr,
                   const ImportanceTable* importance = nullptr);

  ParallelRunResult run(const CameraPath& path);

  usize worker_count() const { return partition_.worker_count(); }

  /// Worker `w`'s slice of the hierarchy (tests inspect per-worker caches).
  MemoryHierarchy& worker_hierarchy(usize w);

 private:
  Partition partition_;
  PipelineConfig config_;
  Algorithm1Setup algorithm1_;
  BlockBoundsIndex bounds_;
  std::vector<MemoryHierarchy> hierarchies_;  ///< one per worker
};

}  // namespace vizcache
