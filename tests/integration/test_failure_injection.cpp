#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "service/async_prefetcher.hpp"
#include "util/error.hpp"
#include "volume/packed_block_store.hpp"

namespace vizcache {
namespace {

namespace fs = std::filesystem;

/// Failure-injection coverage: I/O errors must surface cleanly (exceptions
/// on demand paths, counted-and-recovered on background paths), never hang
/// or corrupt the prefetcher.
class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique: ctest -j runs sibling tests of this fixture as separate
    // concurrent processes, so a shared directory would be remove_all'd out
    // from under a running test.
    dir_ = fs::temp_directory_path() /
           ("vizcache_fault_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(FailureInjectionTest, BackgroundPrefetchFailureIsCountedAndRetried) {
  SyntheticVolume ball = make_ball_volume({16, 16, 16});
  const std::string path = (dir_ / "store.vzpk").string();
  PackedFileBlockStore store =
      PackedFileBlockStore::write_store(path, ball, {8, 8, 8});

  // Cut the last brick (block 7) off the end of the file.
  fs::resize_file(path, fs::file_size(path) - 8ull * 8 * 8 * sizeof(float));

  AsyncPrefetcher pf(store, 2);
  std::vector<BlockId> ids{3, 4, 5, 6, 7};
  pf.request(ids);
  pf.drain();

  EXPECT_EQ(pf.stats().failures, 1u);
  EXPECT_EQ(pf.stats().prefetched, 4u);
  EXPECT_EQ(pf.get_if_ready(7), nullptr);
  // The healthy blocks are all usable.
  for (BlockId id : {3u, 4u, 5u, 6u}) {
    EXPECT_NE(pf.get_if_ready(id), nullptr);
  }

  // The failed block is retryable: rewrite the store in place (the open
  // stream sees the new bytes), re-request, succeed.
  PackedFileBlockStore::write_store(path, ball, {8, 8, 8});
  std::vector<BlockId> retry{7};
  pf.request(retry);
  pf.drain();
  const AsyncPrefetcher::Payload restored = pf.get_if_ready(7);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(*restored,
            SyntheticBlockStore(ball, {8, 8, 8}).read_block(7, 0, 0));
  EXPECT_EQ(pf.stats().prefetched, 5u);
}

TEST_F(FailureInjectionTest, DemandReadFailureThrowsToCaller) {
  SyntheticVolume ball = make_ball_volume({16, 16, 16});
  const std::string path = (dir_ / "store.vzpk").string();
  PackedFileBlockStore store =
      PackedFileBlockStore::write_store(path, ball, {8, 8, 8});
  fs::resize_file(path, fs::file_size(path) - 8ull * 8 * 8 * sizeof(float));

  AsyncPrefetcher pf(store, 1);
  EXPECT_THROW(pf.get_blocking(7), IoError);
  // The prefetcher stays usable after the demand failure.
  EXPECT_NE(pf.get_blocking(0), nullptr);
}

TEST_F(FailureInjectionTest, TruncatedPackedStoreFailsOnlyAffectedBlocks) {
  SyntheticVolume ball = make_ball_volume({16, 16, 16});
  std::string path = (dir_ / "store.vzpk").string();
  PackedFileBlockStore store =
      PackedFileBlockStore::write_store(path, ball, {8, 8, 8});

  // Chop off the tail: the last bricks become unreadable, earlier ones keep
  // working (the index survives at the front of the file).
  u64 brick_bytes = 8ull * 8 * 8 * 4;
  fs::resize_file(path, fs::file_size(path) - brick_bytes);
  PackedFileBlockStore damaged(path);
  EXPECT_NO_THROW(damaged.read_block(0, 0, 0));
  EXPECT_THROW(damaged.read_block(7, 0, 0), IoError);
  // And reads after a failure still work (stream state is cleared).
  EXPECT_NO_THROW(damaged.read_block(1, 0, 0));
}

TEST_F(FailureInjectionTest, CorruptTableFilesRejected) {
  // Garbage where a serialized table is expected.
  std::string junk = (dir_ / "junk.bin").string();
  {
    std::ofstream out(junk, std::ios::binary);
    out << "not a table";
  }
  EXPECT_THROW(PackedFileBlockStore{junk}, IoError);
}

}  // namespace
}  // namespace vizcache
