#pragma once

#include <memory>
#include <optional>

#include "core/pipeline.hpp"
#include "util/thread_pool.hpp"
#include "volume/datasets.hpp"

namespace vizcache {

/// Everything needed to set up one experiment configuration. Shared by the
/// bench binaries and example apps so every figure builds its world the
/// same way.
struct WorkbenchSpec {
  DatasetId dataset = DatasetId::kBall3d;
  double scale = 0.125;            ///< per-axis resolution vs Table I
  usize target_blocks = 2048;      ///< block-grid granularity
  double view_angle_deg = 10.0;
  double cache_ratio = 0.5;        ///< fast:slow cache size ratio (paper V-A)

  OmegaSamplingSpec omega{18, 36, 5, 2.5, 3.5};  ///< T_visible lattice
  usize vicinal_samples = 8;
  std::optional<double> fixed_radius;            ///< override Eq. 6
  /// Expected per-step view change of the paths this workbench will run
  /// (floors the vicinal radius; see VisibilityTableSpec::path_step_deg).
  double path_step_deg = 0.0;
  /// Importance trim of each T_visible entry (paper Section IV-C). Defaults
  /// to the DRAM capacity in blocks so predicted+current sets fit fast
  /// memory — the paper's "ideal case".
  std::optional<usize> max_blocks_per_entry;

  /// Fraction of blocks whose entropy should exceed sigma (drives both
  /// preloading and prefetch filtering). 0.75 keeps everything but the
  /// flattest ambient quarter of the volume prefetchable.
  double sigma_fraction = 0.75;

  /// Block-importance metric (paper uses Shannon entropy; gradient and
  /// random are ablation alternatives).
  enum class ImportanceMetric { kEntropy, kGradient, kRandom };
  ImportanceMetric importance_metric = ImportanceMetric::kEntropy;

  RenderTimeModel render_model = gpu_render_model();
  LookupCostModel lookup_cost;
};

/// Owns the dataset, block grid, importance table, and visibility table for
/// one configuration, and runs baseline / app-aware / oracle pipelines over
/// camera paths with cold caches per run.
class Workbench {
 public:
  explicit Workbench(const WorkbenchSpec& spec);

  const WorkbenchSpec& spec() const { return spec_; }
  const BlockGrid& grid() const { return store_->grid(); }
  const BlockStore& store() const { return *store_; }
  const ImportanceTable& importance() const { return *importance_; }
  const VisibilityTable& table() const { return *table_; }
  const BlockMetadataTable& metadata() const { return *metadata_; }
  double sigma_bits() const { return sigma_bits_; }
  u64 dataset_bytes() const;

  /// Rebuild T_visible with a different lattice / radius (Fig. 7 / Fig. 11
  /// sweeps) without re-reading the dataset.
  void rebuild_table(const OmegaSamplingSpec& omega,
                     std::optional<double> fixed_radius);

  /// Change the fast:slow cache ratio for subsequent runs (Fig. 13b).
  void set_cache_ratio(double ratio);

  /// Adapt the vicinal-radius floor to a new expected path step and rebuild
  /// T_visible (Fig. 9/12/13 sweeps over degree changes).
  void set_path_step_deg(double degrees);

  /// One conventional-policy run (paper baselines: kFifo, kLru). With a
  /// schedule, the run is query-driven (data-dependent operations).
  RunResult run_baseline(PolicyKind policy, const CameraPath& path,
                         const QuerySchedule* schedule = nullptr) const;

  /// One application-aware run ("OPT" in the paper's figures).
  RunResult run_app_aware(const CameraPath& path,
                          const QuerySchedule* schedule = nullptr) const;

  /// Offline-optimal upper bound: Belady's MIN at every level, fed the
  /// path's demand sequence (each step's visible set, in order).
  RunResult run_belady(const CameraPath& path) const;

  /// A cold paper-testbed hierarchy over this dataset at the spec's ratio.
  MemoryHierarchy make_hierarchy(PolicyKind policy) const;

 private:
  WorkbenchSpec spec_;
  /// Worker pool for table construction (importance + visibility chunk their
  /// block/entry loops over it). Declared first so it outlives every user.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<BlockStore> store_;
  std::unique_ptr<ImportanceTable> importance_;
  std::unique_ptr<VisibilityTable> table_;
  std::unique_ptr<BlockMetadataTable> metadata_;
  double sigma_bits_ = 0.0;
};

}  // namespace vizcache
