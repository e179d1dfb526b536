#include "volume/packed_block_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace vizcache {
namespace {

namespace fs = std::filesystem;

class PackedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique so concurrent ctest processes running sibling tests of
    // this fixture cannot remove_all each other's store.
    dir_ = fs::temp_directory_path() /
           ("vizcache_packed_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    path_ = (dir_ / "store.vzpk").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string path_;
};

TEST_F(PackedStoreTest, RoundTripsAllBlocks) {
  SyntheticVolume ball = make_ball_volume({20, 16, 12});
  SyntheticBlockStore reference(ball, {8, 8, 8});
  PackedFileBlockStore store =
      PackedFileBlockStore::write_store(path_, ball, {8, 8, 8});
  ASSERT_EQ(store.grid().block_count(), reference.grid().block_count());
  for (BlockId id = 0; id < store.grid().block_count(); ++id) {
    EXPECT_EQ(store.read_block(id, 0, 0), reference.read_block(id, 0, 0))
        << "block " << id;
  }
}

TEST_F(PackedStoreTest, MultiVariableTimeVarying) {
  SyntheticVolume climate = make_climate_volume({12, 12, 8}, 3, 2);
  SyntheticBlockStore reference(climate, {6, 6, 4});
  PackedFileBlockStore store =
      PackedFileBlockStore::write_store(path_, climate, {6, 6, 4});
  for (usize t = 0; t < 2; ++t) {
    for (usize v = 0; v < 3; ++v) {
      EXPECT_EQ(store.read_block(1, v, t), reference.read_block(1, v, t));
    }
  }
  EXPECT_THROW(store.read_block(0, 3, 0), InvalidArgument);
  EXPECT_THROW(store.read_block(0, 0, 2), InvalidArgument);
}

TEST_F(PackedStoreTest, ReopenFromDisk) {
  SyntheticVolume ball = make_ball_volume({16, 16, 16});
  PackedFileBlockStore::write_store(path_, ball, {8, 8, 8});
  PackedFileBlockStore reopened(path_);
  EXPECT_EQ(reopened.desc().dims, Dims3(16, 16, 16));
  EXPECT_EQ(reopened.grid().block_count(), 8u);
  EXPECT_EQ(reopened.read_block(3, 0, 0).size(), 8u * 8 * 8);
}

TEST_F(PackedStoreTest, SingleFileHoldsEverything) {
  SyntheticVolume ball = make_ball_volume({16, 16, 16});
  PackedFileBlockStore store =
      PackedFileBlockStore::write_store(path_, ball, {8, 8, 8});
  // One file; payload bytes dominate (header+index are small).
  u64 payload = 16u * 16 * 16 * 4;
  EXPECT_GT(store.file_bytes(), payload);
  EXPECT_LT(store.file_bytes(), payload + 4096);
}

TEST_F(PackedStoreTest, ConcurrentReadsAreSafe) {
  SyntheticVolume ball = make_ball_volume({24, 24, 24});
  SyntheticBlockStore reference(ball, {8, 8, 8});
  PackedFileBlockStore store =
      PackedFileBlockStore::write_store(path_, ball, {8, 8, 8});
  ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  for (int rep = 0; rep < 4; ++rep) {
    for (BlockId id = 0; id < store.grid().block_count(); ++id) {
      pool.submit([&, id] {
        if (store.read_block(id, 0, 0) != reference.read_block(id, 0, 0)) {
          ++mismatches;
        }
      });
    }
  }
  pool.wait_idle();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(PackedStoreTest, RejectsCorruptFiles) {
  // Wrong magic.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << "JUNKJUNKJUNK";
  }
  EXPECT_THROW(PackedFileBlockStore{path_}, IoError);
  // Truncated store.
  SyntheticVolume ball = make_ball_volume({16, 16, 16});
  PackedFileBlockStore::write_store(path_, ball, {8, 8, 8});
  fs::resize_file(path_, fs::file_size(path_) / 2);
  PackedFileBlockStore truncated(path_);  // header+index still intact
  EXPECT_THROW(truncated.read_block(7, 0, 0), IoError);
}

// The offset index must give every entry exactly its block's bytes. A
// shrunk entry would hand out a 511-float payload for a 512-voxel block, an
// offset below its predecessor would underflow the length, and a huge last
// offset would allocate it before the short read fails.
TEST_F(PackedStoreTest, RejectsCorruptIndex) {
  SyntheticVolume ball = make_ball_volume({16, 16, 16});
  const u64 block_bytes = 8 * 8 * 8 * sizeof(float);
  // Rewrites a healthy store, then overwrites offsets[entry] in place. The
  // index follows the magic, the eight header fields and the entry count.
  const auto corrupt = [&](usize entry, u64 value) {
    PackedFileBlockStore::write_store(path_, ball, {8, 8, 8});
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(4 + (9 + entry) * sizeof(u64)));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
    ASSERT_TRUE(f.good());
  };
  corrupt(2, 2 * block_bytes - 4);  // entry 1 short, entry 2 long
  EXPECT_THROW(PackedFileBlockStore{path_}, IoError);
  corrupt(2, block_bytes - 4);  // below offsets[1]
  EXPECT_THROW(PackedFileBlockStore{path_}, IoError);
  corrupt(8, u64{1} << 30);  // a 1 GiB last entry
  EXPECT_THROW(PackedFileBlockStore{path_}, IoError);
  corrupt(0, 4);  // the index must start at the payload
  EXPECT_THROW(PackedFileBlockStore{path_}, IoError);
  corrupt(8, 8 * block_bytes);  // the value write_store wrote: healthy
  EXPECT_NO_THROW(PackedFileBlockStore{path_});
}

// The header's counts size the offset index. A product that wraps must not
// pass as a small index, and an index longer than the file must fail before
// it is allocated.
TEST_F(PackedStoreTest, RejectsHeaderCountsTheFileCannotHold) {
  // magic | dims[3] | variables | timesteps | block_dims[3] | entry_count,
  // then one zero offset.
  const auto write_header = [&](const u64 (&fields)[9]) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write("VZPK", 4);
    out.write(reinterpret_cast<const char*>(fields), sizeof(fields));
    const u64 offset = 0;
    out.write(reinterpret_cast<const char*>(&offset), sizeof(offset));
  };
  const u64 big = u64{1} << 63;
  // One 4^3 block x 2^63 variables x 2 timesteps wraps to 0 entries.
  write_header({4, 4, 4, big, 2, 4, 4, 4, 0});
  EXPECT_THROW(PackedFileBlockStore{path_}, IoError);
  // 2^61 one-voxel blocks: an index past vector::max_size().
  write_header({u64{1} << 21, u64{1} << 20, u64{1} << 20, 1, 1, 1, 1, 1,
                u64{1} << 61});
  EXPECT_THROW(PackedFileBlockStore{path_}, IoError);
  // Dims whose voxel count wraps.
  write_header({u64{1} << 32, u64{1} << 32, 1, 1, 1, 1, 1, 1, 0});
  EXPECT_THROW(PackedFileBlockStore{path_}, IoError);
  // An index the header promises but the file does not hold.
  write_header({8, 8, 8, 1, 1, 4, 4, 4, 8});
  EXPECT_THROW(PackedFileBlockStore{path_}, IoError);
}

TEST_F(PackedStoreTest, MissingFileThrows) {
  EXPECT_THROW(PackedFileBlockStore("/nonexistent/store.vzpk"), IoError);
}

}  // namespace
}  // namespace vizcache
