// AsyncPrefetcher stress tests: concurrent request / get_blocking /
// evict_except / stats traffic over a shared cache, plus an intermittently
// failing store. These are the TSan targets for the prefetch hot path
// (Algorithm 1's render/prefetch overlap), but run in every configuration.

#include "service/async_prefetcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

SyntheticBlockStore make_store() {
  // 27 blocks of 8^3 voxels: small enough that TSan rounds stay fast, large
  // enough that requesters/getters/evictors collide on the same ids.
  return SyntheticBlockStore(make_ball_volume({24, 24, 24}), {8, 8, 8});
}

TEST(AsyncPrefetcherStress, ConcurrentRequestGetEvict) {
  SyntheticBlockStore store = make_store();
  const usize block_count = store.grid().block_count();
  AsyncPrefetcher pf(store, 2);

  constexpr int kRounds = 40;
  std::atomic<u64> blocking_calls{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;

  // Two requesters sweep shuffled id windows.
  for (unsigned seed = 1; seed <= 2; ++seed) {
    threads.emplace_back([&, seed] {
      std::mt19937 rng(seed);
      std::vector<BlockId> ids(block_count);
      for (BlockId i = 0; i < block_count; ++i) ids[i] = i;
      for (int r = 0; r < kRounds; ++r) {
        std::shuffle(ids.begin(), ids.end(), rng);
        pf.request(std::span<const BlockId>(ids.data(), ids.size() / 2));
      }
    });
  }

  // Two demand readers verify payload integrity against the store.
  for (unsigned seed = 3; seed <= 4; ++seed) {
    threads.emplace_back([&, seed] {
      std::mt19937 rng(seed);
      std::uniform_int_distribution<BlockId> pick(
          0, static_cast<BlockId>(block_count - 1));
      for (int r = 0; r < kRounds; ++r) {
        BlockId id = pick(rng);
        auto payload = pf.get_blocking(id);
        blocking_calls.fetch_add(1, std::memory_order_relaxed);
        ASSERT_NE(payload, nullptr);
        EXPECT_EQ(*payload, store.read_block(id, 0, 0));
      }
    });
  }

  // One evictor repeatedly shrinks the cache to a random keep-set.
  threads.emplace_back([&] {
    std::mt19937 rng(5);
    std::uniform_int_distribution<BlockId> pick(0, block_count - 1);
    while (!stop.load(std::memory_order_acquire)) {
      pf.evict_except({pick(rng), pick(rng), pick(rng)});
      std::this_thread::yield();
    }
  });

  // One poller exercises the lock-free-looking read paths.
  threads.emplace_back([&] {
    std::mt19937 rng(6);
    std::uniform_int_distribution<BlockId> pick(0, block_count - 1);
    while (!stop.load(std::memory_order_acquire)) {
      auto payload = pf.get_if_ready(pick(rng));
      if (payload) {
        EXPECT_EQ(payload->size(), 8u * 8u * 8u);
      }
      (void)pf.cached_blocks();
      (void)pf.stats();
      std::this_thread::yield();
    }
  });

  for (usize t = 0; t < 4; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads[4].join();
  threads[5].join();
  pf.drain();

  AsyncPrefetcher::Stats stats = pf.stats();
  EXPECT_EQ(stats.demand_hits + stats.demand_misses, blocking_calls.load());
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_LE(pf.cached_blocks(), block_count);
  // After the dust settles every cached payload is still exact.
  for (BlockId id = 0; id < block_count; ++id) {
    auto payload = pf.get_if_ready(id);
    if (payload) {
      EXPECT_EQ(*payload, store.read_block(id, 0, 0));
    }
  }
}

/// Store whose first read of every block fails, to drive the failure path of
/// the background loader concurrently with successful retries.
class FlakyOnceStore final : public BlockStore {
 public:
  explicit FlakyOnceStore(const SyntheticBlockStore& inner)
      : inner_(inner), attempts_(inner.grid().block_count()) {
    for (auto& a : attempts_) a.store(0);
  }

  const BlockGrid& grid() const override { return inner_.grid(); }
  const VolumeDesc& desc() const override { return inner_.desc(); }

  std::vector<float> read_block(BlockId id, usize var,
                                usize timestep) const override {
    if (attempts_[id].fetch_add(1, std::memory_order_relaxed) == 0) {
      throw IoError("injected first-read failure");
    }
    return inner_.read_block(id, var, timestep);
  }

 private:
  const SyntheticBlockStore& inner_;
  mutable std::vector<std::atomic<u32>> attempts_;
};

TEST(AsyncPrefetcherStress, FailedPrefetchesUnwedgeAndRetry) {
  SyntheticBlockStore base = make_store();
  FlakyOnceStore store(base);
  const usize block_count = base.grid().block_count();
  AsyncPrefetcher pf(store, 2);

  std::vector<BlockId> ids(block_count);
  for (BlockId i = 0; i < block_count; ++i) ids[i] = i;

  pf.request(ids);  // every background load fails once
  pf.drain();
  AsyncPrefetcher::Stats after_first = pf.stats();
  EXPECT_GT(after_first.failures, 0u);

  // Failed blocks must not be wedged in the in-flight set: a second request
  // round reloads them, and demand reads succeed on retry.
  pf.request(ids);
  pf.drain();
  std::vector<std::thread> readers;
  for (unsigned seed = 1; seed <= 2; ++seed) {
    readers.emplace_back([&] {
      for (BlockId id = 0; id < block_count; ++id) {
        auto payload = pf.get_blocking(id);
        ASSERT_NE(payload, nullptr);
        EXPECT_EQ(*payload, base.read_block(id, 0, 0));
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(pf.cached_blocks(), block_count);
}

/// Store that blocks the FIRST read of one chosen block until the gate
/// opens (later reads of it pass straight through) and counts its reads.
/// Lets a test hold a load mid-flight and probe what races against it.
class GatedStore final : public BlockStore {
 public:
  GatedStore(const SyntheticBlockStore& inner, BlockId gated)
      : inner_(inner), gated_(gated) {}

  const BlockGrid& grid() const override { return inner_.grid(); }
  const VolumeDesc& desc() const override { return inner_.desc(); }

  std::vector<float> read_block(BlockId id, usize var,
                                usize timestep) const override {
    if (id == gated_) {
      if (reads_.fetch_add(1, std::memory_order_relaxed) == 0) {
        started_.store(true, std::memory_order_release);
        while (!gate_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
    }
    return inner_.read_block(id, var, timestep);
  }

  void wait_started() const {
    while (!started_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  void open_gate() { gate_.store(true, std::memory_order_release); }
  u32 gated_reads() const { return reads_.load(std::memory_order_relaxed); }

 private:
  const SyntheticBlockStore& inner_;
  const BlockId gated_;
  mutable std::atomic<u32> reads_{0};
  mutable std::atomic<bool> started_{false};
  std::atomic<bool> gate_{false};
};

// Regression: get_blocking used to run its synchronous demand read without
// marking the block in flight, so a request() issued while the demand read
// was underway launched a duplicate background read of the same block.
TEST(AsyncPrefetcherStress, DemandReadSuppressesDuplicatePrefetch) {
  SyntheticBlockStore base = make_store();
  GatedStore store(base, /*gated=*/0);
  AsyncPrefetcher pf(store, 2);

  // Demand reader blocks inside the store, holding block 0 mid-read.
  std::thread reader([&] {
    auto payload = pf.get_blocking(0);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, base.read_block(0, 0, 0));
  });
  store.wait_started();

  // A prefetch round arriving during the demand read must see the in-flight
  // marker and skip block 0 instead of reading it again.
  const BlockId ids[] = {0};
  pf.request(ids);

  store.open_gate();
  reader.join();
  pf.drain();
  EXPECT_EQ(store.gated_reads(), 1u);
  EXPECT_NE(pf.get_if_ready(0), nullptr);
}

// Regression: get_blocking used to erase the in-flight marker
// unconditionally on completion — even when a background prefetch owned it.
// The orphaned prefetch then slipped out of the duplicate-suppression set,
// so the next request() round re-read a block that was still being loaded.
TEST(AsyncPrefetcherStress, DemandReadKeepsRacingPrefetchMarker) {
  SyntheticBlockStore base = make_store();
  GatedStore store(base, /*gated=*/0);
  AsyncPrefetcher pf(store, 2);

  const BlockId ids[] = {0};
  pf.request(ids);       // background read #1 blocks on the gate
  store.wait_started();

  auto payload = pf.get_blocking(0);  // read #2: passes, caches the payload
  ASSERT_NE(payload, nullptr);
  pf.evict_except({});   // empty the cache again

  // Read #1 is still in flight; its marker must have survived get_blocking,
  // so this round must not start read #3.
  pf.request(ids);

  store.open_gate();
  pf.drain();            // read #1 lands and re-populates the cache
  EXPECT_EQ(store.gated_reads(), 2u);
  EXPECT_NE(pf.get_if_ready(0), nullptr);
  EXPECT_EQ(pf.stats().failures, 0u);
}

TEST(AsyncPrefetcherStress, DestructionWithLoadsInFlight) {
  // The prefetcher must be safely destructible while background loads are
  // still landing (pool is the last member: workers join before state dies).
  SyntheticBlockStore store = make_store();
  std::vector<BlockId> ids(store.grid().block_count());
  for (BlockId i = 0; i < ids.size(); ++i) ids[i] = i;
  for (int round = 0; round < 10; ++round) {
    AsyncPrefetcher pf(store, 2);
    pf.request(ids);
    // no drain: destructor races the in-flight loads on purpose
  }
  SUCCEED();
}

}  // namespace
}  // namespace vizcache
