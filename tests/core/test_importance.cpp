#include "core/importance.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "util/error.hpp"
#include "volume/datasets.hpp"

namespace vizcache {
namespace {

namespace fs = std::filesystem;

SyntheticBlockStore flame_store() {
  return SyntheticBlockStore(make_flame_volume("f", {48, 48, 48}), {12, 12, 12});
}

TEST(Importance, EveryBlockScored) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build(store, 64);
  EXPECT_EQ(t.block_count(), store.grid().block_count());
  EXPECT_EQ(t.ranked().size(), store.grid().block_count());
}

TEST(Importance, EntropiesNonNegativeAndBounded) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build(store, 64);
  for (BlockId id = 0; id < t.block_count(); ++id) {
    EXPECT_GE(t.entropy(id), 0.0);
    EXPECT_LE(t.entropy(id), 6.0);  // log2(64)
  }
}

TEST(Importance, RankingDescending) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build(store, 64);
  for (usize i = 1; i < t.ranked().size(); ++i) {
    EXPECT_GE(t.entropy(t.ranked()[i - 1]), t.entropy(t.ranked()[i]));
  }
}

TEST(Importance, FlameSheetBeatsAmbient) {
  // Observation 2: ambient corner blocks score ~0; jet-sheet blocks score
  // high. The flame occupies the column around the (meandering) y-axis.
  SyntheticBlockStore store = flame_store();
  const BlockGrid& grid = store.grid();
  ImportanceTable t = ImportanceTable::build(store, 64);
  BlockId ambient = grid.id_of({3, 0, 3});  // far corner, low altitude
  BlockId sheet = grid.id_of({1, 2, 1});    // central column, mid height
  EXPECT_LT(t.entropy(ambient), 0.5);
  EXPECT_GT(t.entropy(sheet), t.entropy(ambient) + 0.5);
}

TEST(Importance, TopKOrderedPrefix) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build(store, 64);
  auto top = t.top_k(5);
  ASSERT_EQ(top.size(), 5u);
  for (usize i = 0; i < 5; ++i) EXPECT_EQ(top[i], t.ranked()[i]);
  // k beyond block count clamps.
  EXPECT_EQ(t.top_k(1'000'000).size(), t.block_count());
}

TEST(Importance, AboveThresholdConsistent) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build(store, 64);
  double sigma = t.mean_entropy();
  auto above = t.above_threshold(sigma);
  for (BlockId id : above) EXPECT_GT(t.entropy(id), sigma);
  // Completeness: everything above sigma is in the list.
  usize expected = 0;
  for (BlockId id = 0; id < t.block_count(); ++id) {
    if (t.entropy(id) > sigma) ++expected;
  }
  EXPECT_EQ(above.size(), expected);
}

TEST(Importance, ThresholdForFraction) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build(store, 64);
  double sigma = t.threshold_for_fraction(0.25);
  auto above = t.above_threshold(sigma);
  double fraction = static_cast<double>(above.size()) /
                    static_cast<double>(t.block_count());
  EXPECT_NEAR(fraction, 0.25, 0.1);
  // Edge fractions.
  EXPECT_TRUE(t.above_threshold(t.threshold_for_fraction(0.0)).empty());
  EXPECT_EQ(t.above_threshold(t.threshold_for_fraction(1.0)).size(),
            t.block_count());
}

TEST(Importance, MinMaxMeanConsistent) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build(store, 64);
  EXPECT_LE(t.min_entropy(), t.mean_entropy());
  EXPECT_LE(t.mean_entropy(), t.max_entropy());
  EXPECT_DOUBLE_EQ(t.max_entropy(), t.entropy(t.ranked().front()));
  EXPECT_DOUBLE_EQ(t.min_entropy(), t.entropy(t.ranked().back()));
}

TEST(Importance, ConstantDatasetAllZero) {
  VolumeDesc desc;
  desc.dims = {16, 16, 16};
  SyntheticBlockStore store(
      {desc, [](const Vec3&, usize, usize) { return 1.0f; }}, {8, 8, 8});
  ImportanceTable t = ImportanceTable::build(store, 64);
  for (BlockId id = 0; id < t.block_count(); ++id) {
    EXPECT_DOUBLE_EQ(t.entropy(id), 0.0);
  }
}

TEST(Importance, TurbulenceBeatsBallOnAverage) {
  SyntheticBlockStore turb(make_turbulence_volume({32, 32, 32}), {8, 8, 8});
  SyntheticBlockStore ball(make_ball_volume({32, 32, 32}), {8, 8, 8});
  ImportanceTable tt = ImportanceTable::build(turb, 64);
  ImportanceTable tb = ImportanceTable::build(ball, 64);
  EXPECT_GT(tt.mean_entropy(), tb.mean_entropy());
}

TEST(Importance, SaveLoadRoundTrip) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build(store, 64);
  std::string path =
      (fs::temp_directory_path() / "vizcache_imp_test.bin").string();
  t.save(path);
  ImportanceTable loaded = ImportanceTable::load(path);
  ASSERT_EQ(loaded.block_count(), t.block_count());
  for (BlockId id = 0; id < t.block_count(); ++id) {
    EXPECT_DOUBLE_EQ(loaded.entropy(id), t.entropy(id));
  }
  EXPECT_EQ(loaded.ranked(), t.ranked());
  fs::remove(path);
}

TEST(Importance, LoadMissingFileThrows) {
  EXPECT_THROW(ImportanceTable::load("/nonexistent/imp.bin"), IoError);
}

TEST(Importance, LoadRejectsCountLargerThanFile) {
  // 2^61 entries: above vector::max_size(), and 2^61 * sizeof(double)
  // wraps to 0.
  const std::string path =
      (fs::temp_directory_path() / "vizcache_imp_huge.bin").string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const u64 n = u64{1} << 61;
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  EXPECT_THROW(ImportanceTable::load(path), IoError);
  fs::remove(path);
}

TEST(Importance, OutOfRangeThrows) {
  SyntheticBlockStore store = flame_store();
  ImportanceTable t = ImportanceTable::build(store, 64);
  EXPECT_THROW(t.entropy(static_cast<BlockId>(t.block_count())),
               InvalidArgument);
  EXPECT_THROW(t.threshold_for_fraction(1.5), InvalidArgument);
}

}  // namespace
}  // namespace vizcache
