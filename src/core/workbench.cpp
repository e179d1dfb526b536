#include "core/workbench.hpp"

#include "storage/policy_belady.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace vizcache {

namespace {
/// Histogram bins of the entropy importance metric.
constexpr usize kEntropyBins = 128;
}  // namespace

Workbench::Workbench(const WorkbenchSpec& spec) : spec_(spec) {
  pool_ = std::make_unique<ThreadPool>();  // hardware concurrency
  SyntheticVolume volume = make_dataset(spec_.dataset, spec_.scale);
  BlockGrid grid =
      BlockGrid::with_target_block_count(volume.desc.dims, spec_.target_blocks);
  store_ = std::make_unique<SyntheticBlockStore>(std::move(volume),
                                                 grid.block_dims());
  switch (spec_.importance_metric) {
    case WorkbenchSpec::ImportanceMetric::kEntropy:
      importance_ = std::make_unique<ImportanceTable>(ImportanceTable::build(
          *store_, kEntropyBins, 0, 0, pool_.get()));
      break;
    case WorkbenchSpec::ImportanceMetric::kGradient:
      importance_ = std::make_unique<ImportanceTable>(
          ImportanceTable::build_gradient(*store_, 0, 0, pool_.get()));
      break;
    case WorkbenchSpec::ImportanceMetric::kRandom:
      importance_ = std::make_unique<ImportanceTable>(
          ImportanceTable::build_random(grid.block_count()));
      break;
  }
  metadata_ = std::make_unique<BlockMetadataTable>(
      BlockMetadataTable::build(*store_, 1));
  sigma_bits_ = importance_->threshold_for_fraction(spec_.sigma_fraction);
  if (!spec_.max_blocks_per_entry) {
    // Paper Section IV-B: ideally predicted + current visible blocks just
    // fill fast memory; trim each entry to the DRAM capacity in blocks.
    double dram_fraction = spec_.cache_ratio * spec_.cache_ratio;
    auto cap = static_cast<usize>(
        dram_fraction * static_cast<double>(grid.block_count()));
    spec_.max_blocks_per_entry = std::max<usize>(1, cap);
  }
  rebuild_table(spec_.omega, spec_.fixed_radius);
}

u64 Workbench::dataset_bytes() const { return store_->grid().total_bytes(); }

void Workbench::rebuild_table(const OmegaSamplingSpec& omega,
                              std::optional<double> fixed_radius) {
  spec_.omega = omega;
  spec_.fixed_radius = fixed_radius;
  VisibilityTableSpec ts;
  ts.omega = omega;
  ts.vicinal_samples = spec_.vicinal_samples;
  ts.view_angle_deg = spec_.view_angle_deg;
  // Eq. 6's "fast:slow" ratio is read as the fraction of the dataset the
  // fastest tier holds (DRAM = cache_ratio^2 of the dataset in the paper's
  // two-cache testbed) — that is the capacity the aggregated frustum must
  // fit into.
  ts.radius_model = {spec_.view_angle_deg,
                     spec_.cache_ratio * spec_.cache_ratio, 1e-3};
  ts.fixed_radius = fixed_radius;
  ts.path_step_deg = spec_.path_step_deg;
  ts.max_blocks_per_entry = spec_.max_blocks_per_entry;
  table_ = std::make_unique<VisibilityTable>(
      VisibilityTable::build(store_->grid(), ts, importance_.get(),
                             pool_.get()));
  VIZ_LOG_DEBUG << "T_visible rebuilt: " << table_->entry_count()
                << " entries, mean " << table_->mean_entry_size()
                << " blocks/entry";
}

void Workbench::set_cache_ratio(double ratio) {
  VIZ_REQUIRE(ratio > 0.0 && ratio <= 1.0, "cache ratio in (0,1]");
  spec_.cache_ratio = ratio;
  // The radius model depends on the ratio: rebuild unless a fixed radius
  // overrides it anyway.
  rebuild_table(spec_.omega, spec_.fixed_radius);
}

void Workbench::set_path_step_deg(double degrees) {
  VIZ_REQUIRE(degrees >= 0.0, "path step must be non-negative");
  spec_.path_step_deg = degrees;
  rebuild_table(spec_.omega, spec_.fixed_radius);
}

MemoryHierarchy Workbench::make_hierarchy(PolicyKind policy) const {
  const BlockGrid* g = &store_->grid();
  return MemoryHierarchy::paper_testbed(
      dataset_bytes(), spec_.cache_ratio, policy,
      [g](BlockId id) { return g->block_bytes(id); });
}

RunResult Workbench::run_baseline(PolicyKind policy, const CameraPath& path,
                                  const QuerySchedule* schedule) const {
  PipelineConfig cfg;
  cfg.app_aware = false;
  cfg.policy = policy;
  cfg.render_model = spec_.render_model;
  cfg.lookup_cost = spec_.lookup_cost;
  VizPipeline pipeline(store_->grid(), make_hierarchy(policy), cfg, nullptr,
                       {}, metadata_.get());
  return pipeline.run(path, schedule);
}

RunResult Workbench::run_app_aware(const CameraPath& path,
                                   const QuerySchedule* schedule) const {
  PipelineConfig cfg;
  cfg.app_aware = true;
  cfg.policy = PolicyKind::kLru;  // Algorithm 1's protected-LRU core
  cfg.sigma_bits = sigma_bits_;
  cfg.render_model = spec_.render_model;
  cfg.lookup_cost = spec_.lookup_cost;
  VizPipeline pipeline(store_->grid(), make_hierarchy(cfg.policy), cfg,
                       table_.get(), {importance_.get(), 1}, metadata_.get());
  return pipeline.run(path, schedule);
}

RunResult Workbench::run_belady(const CameraPath& path) const {
  // Belady's reference string is the demand sequence: each step's exact
  // visible set, in the order every pipeline run fetches it.
  const BlockBoundsIndex bounds(store_->grid());
  std::vector<BlockId> trace;
  for (const Camera& camera : path) {
    const std::vector<BlockId> visible = bounds.visible_blocks(camera);
    trace.insert(trace.end(), visible.begin(), visible.end());
  }

  PipelineConfig cfg;
  cfg.app_aware = false;
  cfg.policy = PolicyKind::kBelady;
  cfg.render_model = spec_.render_model;
  cfg.lookup_cost = spec_.lookup_cost;
  MemoryHierarchy hierarchy = make_hierarchy(PolicyKind::kBelady);
  for (usize level = 0; level < hierarchy.level_count(); ++level) {
    auto* oracle =
        dynamic_cast<BeladyOracle*>(&hierarchy.cache(level).policy());
    VIZ_CHECK(oracle != nullptr, "belady hierarchy without oracle policy");
    // Both levels see the same demand order; the SSD level only consults its
    // subsequence of it, which preserves relative future distances.
    oracle->set_trace(trace);
  }
  VizPipeline pipeline(store_->grid(), std::move(hierarchy), cfg);
  return pipeline.run(path);
}

}  // namespace vizcache
