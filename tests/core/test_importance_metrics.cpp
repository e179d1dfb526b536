#include <gtest/gtest.h>

#include <set>

#include "core/importance.hpp"
#include "util/error.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

SyntheticBlockStore flame_store() {
  return SyntheticBlockStore(make_flame_volume("f", {48, 48, 48}),
                             {12, 12, 12});
}

TEST(GradientImportance, AmbientBlocksScoreZero) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build_gradient(store);
  const BlockGrid& grid = store.grid();
  BlockId ambient = grid.id_of({3, 0, 3});
  EXPECT_NEAR(t.entropy(ambient), 0.0, 1e-3);
}

TEST(GradientImportance, SheetBlocksScoreHigh) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build_gradient(store);
  const BlockGrid& grid = store.grid();
  BlockId sheet = grid.id_of({1, 2, 1});
  BlockId ambient = grid.id_of({3, 0, 3});
  EXPECT_GT(t.entropy(sheet), t.entropy(ambient) + 0.01);
}

TEST(GradientImportance, AgreesWithEntropyOnStructure) {
  // Both metrics must broadly rank the same blocks on a structured field:
  // the top quarter by entropy and by gradient overlap substantially.
  SyntheticBlockStore store = flame_store();
  ImportanceTable entropy = ImportanceTable::build(store, 64);
  ImportanceTable gradient = ImportanceTable::build_gradient(store);
  usize k = store.grid().block_count() / 4;
  auto top_e = entropy.top_k(k);
  auto top_g = gradient.top_k(k);
  std::set<BlockId> set_e(top_e.begin(), top_e.end());
  usize overlap = 0;
  for (BlockId id : top_g) {
    if (set_e.count(id)) ++overlap;
  }
  EXPECT_GT(static_cast<double>(overlap) / static_cast<double>(k), 0.5);
}

TEST(GradientImportance, ConstantFieldScoresZeroEverywhere) {
  VolumeDesc desc;
  desc.dims = {16, 16, 16};
  SyntheticBlockStore store(
      {desc, [](const Vec3&, usize, usize) { return 3.0f; }}, {8, 8, 8});
  ImportanceTable t = ImportanceTable::build_gradient(store);
  for (BlockId id = 0; id < t.block_count(); ++id) {
    EXPECT_DOUBLE_EQ(t.entropy(id), 0.0);
  }
}

TEST(RandomImportance, DeterministicAndComplete) {
  ImportanceTable a = ImportanceTable::build_random(100, 7);
  ImportanceTable b = ImportanceTable::build_random(100, 7);
  EXPECT_EQ(a.ranked(), b.ranked());
  EXPECT_EQ(a.block_count(), 100u);
  for (BlockId id = 0; id < 100; ++id) {
    EXPECT_GT(a.entropy(id), 0.0);
    EXPECT_LT(a.entropy(id), 1.0);
  }
}

TEST(RandomImportance, SeedsChangeRanking) {
  ImportanceTable a = ImportanceTable::build_random(100, 1);
  ImportanceTable b = ImportanceTable::build_random(100, 2);
  EXPECT_NE(a.ranked(), b.ranked());
}

TEST(RandomImportance, EmptyGridThrows) {
  EXPECT_THROW(ImportanceTable::build_random(0), InvalidArgument);
}

TEST(GradientImportance, WorksThroughAllTableOperations) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build_gradient(store);
  EXPECT_EQ(t.ranked().size(), t.block_count());
  double sigma = t.threshold_for_fraction(0.3);
  auto above = t.above_threshold(sigma);
  EXPECT_GT(above.size(), 0u);
  EXPECT_LT(above.size(), t.block_count());
}

}  // namespace
}  // namespace vizcache
