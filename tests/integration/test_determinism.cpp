#include <gtest/gtest.h>

#include "core/workbench.hpp"

namespace vizcache {
namespace {

/// Everything in the experiment stack must be bit-identical across repeat
/// runs and across independent reconstructions — the property every bench
/// relies on when it prints a seed.
TEST(Determinism, WorkbenchReconstructionIdentical) {
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kLiftedRr;
  spec.scale = 0.06;
  spec.target_blocks = 128;
  spec.omega = {6, 12, 2, 2.5, 3.5};

  Workbench a(spec);
  Workbench b(spec);

  ASSERT_EQ(a.grid().block_count(), b.grid().block_count());
  EXPECT_DOUBLE_EQ(a.sigma_bits(), b.sigma_bits());
  for (BlockId id = 0; id < a.grid().block_count(); ++id) {
    EXPECT_DOUBLE_EQ(a.importance().entropy(id), b.importance().entropy(id));
  }
  ASSERT_EQ(a.table().entry_count(), b.table().entry_count());
  for (usize i = 0; i < a.table().entry_count(); ++i) {
    EXPECT_EQ(a.table().entry(i), b.table().entry(i));
  }

  RandomPathSpec rp;
  rp.positions = 40;
  rp.seed = 1234;
  CameraPath path = make_random_path(rp);

  for (int rep = 0; rep < 2; ++rep) {
    RunResult ra = a.run_app_aware(path);
    RunResult rb = b.run_app_aware(path);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.hierarchy, rb.hierarchy);
    EXPECT_DOUBLE_EQ(ra.io_time, rb.io_time);
    EXPECT_DOUBLE_EQ(ra.prefetch_time, rb.prefetch_time);
    EXPECT_DOUBLE_EQ(ra.total_time, rb.total_time);
    EXPECT_DOUBLE_EQ(ra.fast_miss_rate, rb.fast_miss_rate);
  }
}

TEST(Determinism, RunsDoNotContaminateEachOther) {
  // A belady run must not change subsequent baseline results: every run
  // starts from a reset hierarchy.
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.06;
  spec.target_blocks = 128;
  spec.omega = {6, 12, 2, 2.5, 3.5};
  Workbench wb(spec);

  RandomPathSpec rp;
  rp.positions = 30;
  CameraPath path = make_random_path(rp);

  RunResult first = wb.run_baseline(PolicyKind::kLru, path);
  wb.run_belady(path);
  wb.run_app_aware(path);
  RunResult second = wb.run_baseline(PolicyKind::kLru, path);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(first.hierarchy, second.hierarchy);
  EXPECT_DOUBLE_EQ(first.fast_miss_rate, second.fast_miss_rate);
  EXPECT_DOUBLE_EQ(first.io_time, second.io_time);
}

TEST(Determinism, SimulatedTimeIndependentOfWallClock) {
  // Two runs of the same configuration separated by arbitrary work produce
  // identical simulated timings (nothing reads the wall clock).
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.06;
  spec.target_blocks = 128;
  spec.omega = {6, 12, 2, 2.5, 3.5};
  Workbench wb(spec);

  SphericalPathSpec sp;
  sp.positions = 25;
  CameraPath path = make_spherical_path(sp);

  RunResult a = wb.run_app_aware(path);
  // Arbitrary busywork.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  RunResult b = wb.run_app_aware(path);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.hierarchy, b.hierarchy);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_DOUBLE_EQ(a.lookup_time, b.lookup_time);
}

}  // namespace
}  // namespace vizcache
