// Every driver runs the same Algorithm 1 kernel, so on inputs where their
// own concerns are neutral they must agree step for step, bit for bit:
//  - a one-session BlockService (preload on, unbounded fair share) with the
//    sequential VizPipeline behind Workbench::run_app_aware;
//  - a one-worker ParallelPipeline with the same VizPipeline run.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "core/parallel_pipeline.hpp"
#include "core/workbench.hpp"
#include "service/block_service.hpp"

namespace vizcache {
namespace {

struct ParityCase {
  DatasetId dataset;
  u64 seed;
  double step_min_deg;
  double step_max_deg;
};

std::ostream& operator<<(std::ostream& os, const ParityCase& c) {
  return os << dataset_name(c.dataset) << " seed " << c.seed << " "
            << c.step_min_deg << "-" << c.step_max_deg << " deg";
}

void expect_same_step(const StepResult& want, const StepResult& got) {
  EXPECT_EQ(got.visible_blocks, want.visible_blocks);
  EXPECT_EQ(got.fast_misses, want.fast_misses);
  EXPECT_EQ(got.prefetched, want.prefetched);
  EXPECT_EQ(got.io_time, want.io_time);
  EXPECT_EQ(got.lookup_time, want.lookup_time);
  EXPECT_EQ(got.prefetch_time, want.prefetch_time);
  EXPECT_EQ(got.render_time, want.render_time);
  EXPECT_EQ(got.total_time, want.total_time);
}

/// One small workbench per dataset, built once for the whole suite.
class DriverParity : public ::testing::TestWithParam<ParityCase> {
 protected:
  static void SetUpTestSuite() {
    for (DatasetId dataset : {DatasetId::kBall3d, DatasetId::kLiftedRr}) {
      WorkbenchSpec spec;
      spec.dataset = dataset;
      spec.scale = 0.08;
      spec.target_blocks = 256;
      spec.omega = {8, 16, 3, 2.5, 3.5};
      benches_[dataset] = std::make_unique<Workbench>(spec);
    }
  }
  static void TearDownTestSuite() { benches_.clear(); }

  static const Workbench& workbench(DatasetId dataset) {
    return *benches_.at(dataset);
  }

 private:
  static std::map<DatasetId, std::unique_ptr<Workbench>> benches_;
};

std::map<DatasetId, std::unique_ptr<Workbench>> DriverParity::benches_;

TEST_P(DriverParity, ServiceAndParallelMatchSequentialStepForStep) {
  const ParityCase& c = GetParam();
  const Workbench& wb = workbench(c.dataset);
  RandomPathSpec rp;
  rp.step_min_deg = c.step_min_deg;
  rp.step_max_deg = c.step_max_deg;
  rp.positions = 40;
  rp.seed = c.seed;
  const CameraPath path = make_random_path(rp);
  const RunResult want = wb.run_app_aware(path);
  usize prefetched = 0;
  for (const StepResult& s : want.steps) prefetched += s.prefetched;
  ASSERT_GT(prefetched, 0u) << "the path must exercise the prefetch pass";

  ServiceConfig service_cfg;
  service_cfg.app_aware = true;
  service_cfg.preload_important = true;
  service_cfg.sigma_bits = wb.sigma_bits();
  service_cfg.render_model = wb.spec().render_model;
  service_cfg.lookup_cost = wb.spec().lookup_cost;
  const BlockGrid* grid = &wb.grid();
  BlockService service(
      wb.grid(),
      MemoryHierarchy::paper_testbed(
          wb.dataset_bytes(), wb.spec().cache_ratio, PolicyKind::kLru,
          [grid](BlockId id) { return grid->block_bytes(id); }),
      service_cfg, &wb.table(), &wb.importance());
  const std::optional<SessionId> session = service.open_session();
  ASSERT_TRUE(session.has_value());

  PipelineConfig parallel_cfg;
  parallel_cfg.app_aware = true;
  parallel_cfg.sigma_bits = wb.sigma_bits();
  parallel_cfg.render_model = wb.spec().render_model;
  parallel_cfg.lookup_cost = wb.spec().lookup_cost;
  ParallelPipeline parallel(wb.grid(), partition_round_robin(wb.grid(), 1),
                            parallel_cfg, wb.spec().cache_ratio, &wb.table(),
                            &wb.importance());
  const ParallelRunResult par = parallel.run(path);
  ASSERT_EQ(par.steps.size(), want.steps.size());

  for (usize i = 0; i < path.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "step " << i + 1);
    const SessionStepResult served = service.step(*session, path[i]);
    EXPECT_EQ(served.step, want.steps[i].step);
    expect_same_step(want.steps[i], served);
    expect_same_step(want.steps[i], par.steps[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PathsAndDatasets, DriverParity,
    ::testing::Values(ParityCase{DatasetId::kBall3d, 42, 5.0, 10.0},
                      ParityCase{DatasetId::kBall3d, 42, 25.0, 30.0},
                      ParityCase{DatasetId::kBall3d, 7, 5.0, 10.0},
                      ParityCase{DatasetId::kBall3d, 7, 25.0, 30.0},
                      ParityCase{DatasetId::kLiftedRr, 42, 5.0, 10.0},
                      ParityCase{DatasetId::kLiftedRr, 42, 25.0, 30.0},
                      ParityCase{DatasetId::kLiftedRr, 7, 5.0, 10.0},
                      ParityCase{DatasetId::kLiftedRr, 7, 25.0, 30.0}),
    [](const ::testing::TestParamInfo<ParityCase>& param_info) {
      const ParityCase& c = param_info.param;
      return std::string(dataset_name(c.dataset)) + "_seed" +
             std::to_string(c.seed) + "_" +
             std::to_string(static_cast<int>(c.step_min_deg)) + "to" +
             std::to_string(static_cast<int>(c.step_max_deg)) + "deg";
    });

}  // namespace
}  // namespace vizcache
