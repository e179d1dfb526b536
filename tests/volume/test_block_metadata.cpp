#include "volume/block_metadata.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "util/error.hpp"

namespace vizcache {
namespace {

namespace fs = std::filesystem;

SyntheticBlockStore flame_store() {
  return SyntheticBlockStore(make_flame_volume("f", {32, 32, 32}), {8, 8, 8});
}

TEST(BlockMetadata, MinMaxMeanCorrect) {
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable t = BlockMetadataTable::build(store);
  for (BlockId id = 0; id < store.grid().block_count(); ++id) {
    std::vector<float> payload = store.read_block(id, 0, 0);
    float mn = payload[0], mx = payload[0];
    double sum = 0.0;
    for (float v : payload) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      sum += static_cast<double>(v);
    }
    const auto& e = t.entry(id);
    EXPECT_FLOAT_EQ(e.min, mn);
    EXPECT_FLOAT_EQ(e.max, mx);
    EXPECT_NEAR(e.mean, sum / static_cast<double>(payload.size()), 1e-5);
  }
}

TEST(BlockMetadata, RangeTestSoundness) {
  // The metadata test must never produce a false negative: any block that
  // actually contains a value in the range must pass may-match.
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable t = BlockMetadataTable::build(store);
  const float lo = 0.4f, hi = 0.6f;
  for (BlockId id = 0; id < store.grid().block_count(); ++id) {
    std::vector<float> payload = store.read_block(id, 0, 0);
    bool actually_contains = false;
    for (float v : payload) {
      if (v >= lo && v <= hi) actually_contains = true;
    }
    if (actually_contains) {
      EXPECT_TRUE(t.intersects_range(id, 0, lo, hi)) << "block " << id;
    }
  }
}

TEST(BlockMetadata, MultiVariable) {
  SyntheticBlockStore store(make_climate_volume({16, 16, 8}, 5, 1), {8, 8, 4});
  BlockMetadataTable t = BlockMetadataTable::build(store, 3);
  EXPECT_EQ(t.variable_count(), 3u);
  // Different variables have different summaries.
  bool differ = false;
  for (BlockId id = 0; id < t.block_count(); ++id) {
    if (t.entry(id, 0).mean != t.entry(id, 1).mean) differ = true;
  }
  EXPECT_TRUE(differ);
  EXPECT_THROW(t.entry(0, 3), InvalidArgument);
}

TEST(BlockMetadata, SaveLoadRoundTrip) {
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable t = BlockMetadataTable::build(store);
  std::string path =
      (fs::temp_directory_path() / "vizcache_meta_test.bin").string();
  t.save(path);
  BlockMetadataTable loaded = BlockMetadataTable::load(path);
  ASSERT_EQ(loaded.block_count(), t.block_count());
  ASSERT_EQ(loaded.variable_count(), t.variable_count());
  for (BlockId id = 0; id < t.block_count(); ++id) {
    EXPECT_FLOAT_EQ(loaded.entry(id).min, t.entry(id).min);
    EXPECT_FLOAT_EQ(loaded.entry(id).max, t.entry(id).max);
  }
  fs::remove(path);
}

TEST(BlockMetadata, InvalidInputsThrow) {
  SyntheticBlockStore store = flame_store();
  EXPECT_THROW(BlockMetadataTable::build(store, 5), InvalidArgument);
  EXPECT_THROW(BlockMetadataTable::load("/nonexistent/meta.bin"), IoError);
}

TEST(BlockMetadata, LoadRejectsWrappingEntryCount) {
  // 2^62 blocks x 4 variables wraps to 0 entries in 64 bits, which an empty
  // body would otherwise satisfy.
  const std::string path =
      (fs::temp_directory_path() / "vizcache_meta_wrap.bin").string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const u64 header[2] = {u64{1} << 62, 4};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  EXPECT_THROW(BlockMetadataTable::load(path), IoError);
  fs::remove(path);
}

}  // namespace
}  // namespace vizcache
