// Micro-benchmarks (google-benchmark): the hot inner operations of the
// pipeline — per-block entropy, cone visibility tests, T_visible queries,
// cache insert/evict cycles, policy victim selection, and raycast frames.

#include <benchmark/benchmark.h>

#include "core/importance.hpp"
#include "core/visibility.hpp"
#include "core/visibility_table.hpp"
#include "render/raycaster.hpp"
#include "storage/block_cache.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "volume/block_store.hpp"
#include "volume/datasets.hpp"
#include "volume/octree.hpp"

namespace vizcache {
namespace {

void BM_ShannonEntropy(benchmark::State& state) {
  Rng rng(1);
  std::vector<float> values(static_cast<usize>(state.range(0)));
  for (float& v : values) v = static_cast<float>(rng.next_double());
  for (auto _ : state) {
    benchmark::DoNotOptimize(shannon_entropy_bits(values, 256));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(values.size()));
}
BENCHMARK(BM_ShannonEntropy)->Range(1 << 10, 1 << 18);

void BM_ConeVisibilityTest(benchmark::State& state) {
  BlockGrid grid = BlockGrid::with_target_block_count(
      {128, 128, 128}, static_cast<usize>(state.range(0)));
  BlockBoundsIndex idx(grid);
  Camera cam({3, 0.5, -0.2}, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.visible_blocks(cam));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(grid.block_count()));
}
BENCHMARK(BM_ConeVisibilityTest)->Arg(512)->Arg(2048)->Arg(8192);

void BM_VisibilityTableQuery(benchmark::State& state) {
  BlockGrid grid = BlockGrid::with_target_block_count({64, 64, 64}, 512);
  VisibilityTableSpec spec;
  spec.omega = {12, 24, 3, 2.5, 3.5};
  spec.vicinal_samples = 4;
  spec.radius_model = {10.0, 0.25, 1e-3};
  VisibilityTable table = VisibilityTable::build(grid, spec);
  Rng rng(7);
  for (auto _ : state) {
    Vec3 pos = direction_from_angles(rng.uniform(0.1, 3.0),
                                     rng.uniform(0.0, 6.28)) *
               rng.uniform(2.5, 3.5);
    benchmark::DoNotOptimize(table.query(pos));
  }
}
BENCHMARK(BM_VisibilityTableQuery);

void BM_NearestLinearScan(benchmark::State& state) {
  OmegaSamplingSpec omega{static_cast<usize>(state.range(0)),
                          static_cast<usize>(state.range(0)) * 2, 5, 2.5, 3.5};
  auto positions = sample_omega_positions(omega);
  Rng rng(9);
  for (auto _ : state) {
    Vec3 q = direction_from_angles(rng.uniform(0.1, 3.0),
                                   rng.uniform(0.0, 6.28)) *
             3.0;
    benchmark::DoNotOptimize(nearest_position_linear(positions, q));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(positions.size()));
}
BENCHMARK(BM_NearestLinearScan)->Arg(12)->Arg(36);

void BM_CacheInsertEvictCycle(benchmark::State& state) {
  auto policy_kind = static_cast<PolicyKind>(state.range(0));
  BlockCache cache(100 * 64, make_policy(policy_kind, 64),
                   [](BlockId) -> u64 { return 100; });
  u64 step = 0;
  BlockId next = 0;
  for (auto _ : state) {
    ++step;
    cache.insert(next++ % 4096, step);
  }
  state.SetLabel(policy_kind_name(policy_kind));
}
BENCHMARK(BM_CacheInsertEvictCycle)
    ->Arg(static_cast<int>(PolicyKind::kFifo))
    ->Arg(static_cast<int>(PolicyKind::kLru))
    ->Arg(static_cast<int>(PolicyKind::kClock))
    ->Arg(static_cast<int>(PolicyKind::kArc))
    ->Arg(static_cast<int>(PolicyKind::kTwoQ));

void BM_OctreeFrustumQuery(benchmark::State& state) {
  BlockGrid grid = BlockGrid::with_target_block_count(
      {128, 128, 128}, static_cast<usize>(state.range(0)));
  BlockOctree tree = BlockOctree::build(grid);
  ConeFrustum frustum(Camera({3, 0.5, -0.2}, 10.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.query_frustum(frustum));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(grid.block_count()));
}
BENCHMARK(BM_OctreeFrustumQuery)->Arg(512)->Arg(2048)->Arg(8192);

void BM_ImportanceBuild(benchmark::State& state) {
  SyntheticVolume ball = make_ball_volume({48, 48, 48});
  SyntheticBlockStore store(ball, {12, 12, 12});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ImportanceTable::build(store, 128));
  }
}
BENCHMARK(BM_ImportanceBuild);

void BM_RaycastFrame(benchmark::State& state) {
  SyntheticBlockStore store(make_ball_volume({32, 32, 32}), {8, 8, 8});
  ResidentBrickSet bricks(store.grid());
  bricks.load_all(store);
  Camera cam({3, 0, 0}, 30.0);
  RaycastParams params;
  params.image_width = static_cast<usize>(state.range(0));
  params.image_height = static_cast<usize>(state.range(0));
  params.step_size = 0.05;
  const TransferFunctionLUT lut(TransferFunction::fire(), params.step_size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(raycast_packet(cam, bricks, lut, params));
  }
}
BENCHMARK(BM_RaycastFrame)->Arg(32)->Arg(64);

}  // namespace
}  // namespace vizcache
