#include "service/shared_hierarchy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace vizcache {
namespace {

constexpr u64 kBlock = 1000;  // uniform block size in bytes

MemoryHierarchy make_two_level(u64 dram_blocks, u64 ssd_blocks) {
  std::vector<LevelSpec> specs{
      {"DRAM", dram_device(), dram_blocks * kBlock, PolicyKind::kLru},
      {"SSD", ssd_device(), ssd_blocks * kBlock, PolicyKind::kLru},
  };
  return MemoryHierarchy(std::move(specs), hdd_device(),
                         [](BlockId) -> u64 { return kBlock; });
}

TEST(SharedHierarchy, FetchMissThenHit) {
  SharedHierarchy sh(make_two_level(2, 4));
  const u64 e = sh.begin_step();
  SharedHierarchy::FetchResult miss = sh.fetch(1, e);
  EXPECT_FALSE(miss.fast_hit);
  EXPECT_FALSE(miss.coalesced);
  EXPECT_DOUBLE_EQ(miss.seconds, hdd_device().transfer_time(kBlock));
  SharedHierarchy::FetchResult hit = sh.fetch(1, e);
  EXPECT_TRUE(hit.fast_hit);
  EXPECT_DOUBLE_EQ(hit.seconds, dram_device().transfer_time(kBlock));
  sh.end_step(e);
  EXPECT_EQ(sh.stats().demand_requests, 2u);
  EXPECT_EQ(sh.stats().backing_reads(), 1u);
  EXPECT_EQ(sh.coalescer().in_flight_count(), 0u);
}

TEST(SharedHierarchy, EpochsAreMonotonicAndEndStepChecks) {
  SharedHierarchy sh(make_two_level(2, 4));
  const u64 a = sh.begin_step();
  const u64 b = sh.begin_step();
  EXPECT_LT(a, b);
  sh.end_step(b);
  sh.end_step(a);
  EXPECT_THROW(sh.end_step(a), InvalidArgument);  // already retired
}

// The cross-session guarantee: while session A's step is still in progress,
// session B's eviction scan cannot victimize the blocks A fetched, because
// the protection floor is the MINIMUM active epoch.
TEST(SharedHierarchy, ActiveStepBlocksAreNotVictimized) {
  SharedHierarchy sh(make_two_level(1, 8));  // DRAM holds exactly one block
  const u64 a = sh.begin_step();   // epoch 1 (session A)
  sh.fetch(1, a);                  // DRAM := {1}, last_use = a
  const u64 b = sh.begin_step();   // epoch 2 (session B)
  // Floor is min(a, b) == a, and block 1's last_use == a is not < a, so the
  // promotion of block 2 is bypassed at the DRAM level: block 1 survives.
  sh.fetch(2, b);
  EXPECT_TRUE(sh.resident_fast(1));
  EXPECT_FALSE(sh.resident_fast(2));

  // Once A's step retires, the floor rises to b and block 1 is fair game.
  sh.end_step(a);
  sh.fetch(3, b);
  EXPECT_FALSE(sh.resident_fast(1));
  EXPECT_TRUE(sh.resident_fast(3));
  sh.end_step(b);
}

TEST(SharedHierarchy, PrefetchIsSuppressedWhileBlockInFlight) {
  SharedHierarchy sh(make_two_level(2, 4));
  const u64 e = sh.begin_step();
  ASSERT_TRUE(sh.coalescer().try_claim(5));  // a reader is on it elsewhere
  SharedHierarchy::PrefetchResult pr = sh.prefetch(5, e);
  EXPECT_TRUE(pr.suppressed);
  EXPECT_FALSE(pr.performed);
  EXPECT_EQ(sh.stats().prefetch_requests, 0u);

  sh.coalescer().complete(5);
  pr = sh.prefetch(5, e);
  EXPECT_TRUE(pr.performed);
  EXPECT_FALSE(pr.suppressed);
  EXPECT_EQ(sh.stats().prefetch_requests, 1u);
  EXPECT_TRUE(sh.resident_fast(5));
  sh.end_step(e);
}

// Coalesced-hit path: a fetch that finds the block claimed waits on the
// CondVar; when the leader lands the block in fast memory before releasing,
// the waiter's re-probe is a fast hit and no second backing read happens.
TEST(SharedHierarchy, WaiterIsServedFromCacheAfterLeaderCompletes) {
  SharedHierarchy sh(make_two_level(2, 4));
  const u64 e = sh.begin_step();
  ASSERT_TRUE(sh.coalescer().try_claim(7));  // simulate a leader mid-read
  SharedHierarchy::FetchResult fr;
  std::thread waiter([&] { fr = sh.fetch(7, e); });
  while (sh.coalescer().stats().coalesced_waits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sh.preload(7);            // the leader's read lands...
  sh.coalescer().complete(7);  // ...and the claim is released
  waiter.join();
  EXPECT_TRUE(fr.coalesced);
  EXPECT_TRUE(fr.fast_hit);
  EXPECT_EQ(sh.stats().backing_reads(), 0u);
  sh.end_step(e);
}

// If the leader fails to land the block (completes without inserting), the
// waiter claims the read itself instead of spinning or wedging — and having
// paid a full backing read, it must NOT be reported as a coalesced hit
// (regression: the wait used to set `coalesced` unconditionally, so these
// self-served reads over-counted coalesced_hits).
TEST(SharedHierarchy, WaiterRetriesWhenLeaderLandsNothing) {
  SharedHierarchy sh(make_two_level(2, 4));
  const u64 e = sh.begin_step();
  ASSERT_TRUE(sh.coalescer().try_claim(7));
  SharedHierarchy::FetchResult fr;
  std::thread waiter([&] { fr = sh.fetch(7, e); });
  while (sh.coalescer().stats().coalesced_waits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sh.coalescer().complete(7);  // leader vanishes without caching the block
  waiter.join();
  EXPECT_FALSE(fr.coalesced);  // waited, but the wait did not serve it
  EXPECT_FALSE(fr.fast_hit);
  EXPECT_EQ(sh.stats().backing_reads(), 1u);  // the waiter's own read
  EXPECT_EQ(sh.coalescer().in_flight_count(), 0u);
  sh.end_step(e);
}

// Same eviction race driven end to end: the leader lands the block but a
// sliver of DRAM lets it get evicted before the waiter re-probes (simulated
// by preloading a competing block after completion on a one-block fast
// level). The waiter pays its own backing read — not a coalesced hit.
TEST(SharedHierarchy, WaiterServedByLeaderIsCoalescedExactlyOnce) {
  SharedHierarchy sh(make_two_level(2, 8));
  const u64 e = sh.begin_step();
  ASSERT_TRUE(sh.coalescer().try_claim(7));
  SharedHierarchy::FetchResult fr;
  std::thread waiter([&] { fr = sh.fetch(7, e); });
  while (sh.coalescer().stats().coalesced_waits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sh.preload(7);  // the leader's read lands before the waiter wakes
  sh.coalescer().complete(7);
  waiter.join();
  // The wait is what served this fetch: exactly one coalesced hit, no read.
  EXPECT_TRUE(fr.coalesced);
  EXPECT_TRUE(fr.fast_hit);
  EXPECT_EQ(sh.stats().backing_reads(), 0u);
  // A later fetch of the now-resident block is a plain fast hit, not another
  // coalesced one: the waited flag must not leak across calls.
  const SharedHierarchy::FetchResult again = sh.fetch(7, e);
  EXPECT_TRUE(again.fast_hit);
  EXPECT_FALSE(again.coalesced);
  sh.end_step(e);
}

// Unpaced, with no claim outstanding, a miss is read in the hold that found
// it: every miss of a walk, a single fetch, a FETCH and a prefetch lands
// with no coalescer traffic and exactly one backing read each.
TEST(SharedHierarchy, UnpacedMissesAreReadInTheHoldWithoutClaims) {
  SharedHierarchy sh(make_two_level(8, 16));
  const u64 e = sh.begin_step();
  const std::vector<BlockId> walk{1, 2, 1, 3};
  const SharedHierarchy::FetchTotals t = sh.fetch_all(walk, e);
  EXPECT_EQ(t.fast_misses, 3u);  // the second 1 is a fast hit
  EXPECT_EQ(t.coalesced, 0u);
  EXPECT_DOUBLE_EQ(t.seconds, 3 * hdd_device().transfer_time(kBlock) +
                                  dram_device().transfer_time(kBlock));
  EXPECT_FALSE(sh.fetch(4, e).fast_hit);
  EXPECT_TRUE(sh.prefetch(5, e).performed);
  sh.end_step(e);
  EXPECT_FALSE(sh.fetch_block(6).fast_hit);
  EXPECT_TRUE(sh.fetch_block(6).fast_hit);

  const HierarchyStats stats = sh.stats();
  EXPECT_EQ(stats.demand_requests, 7u);
  EXPECT_EQ(stats.demand_backing_reads, 5u);
  EXPECT_EQ(stats.prefetch_backing_reads, 1u);
  const RequestCoalescer::Stats cs = sh.coalescer().stats();
  EXPECT_EQ(cs.claims, 0u);
  EXPECT_EQ(cs.suppressed, 0u);
  EXPECT_EQ(cs.coalesced_waits, 0u);
}

// Another reader's claim still makes a walk wait: the walk blocks on the
// claimed block until the claim completes, is served by the landed read
// (coalesced), and reads the blocks around it itself.
TEST(SharedHierarchy, WalkWaitsOnAnotherReadersClaim) {
  SharedHierarchy sh(make_two_level(4, 8));
  const u64 e = sh.begin_step();
  ASSERT_TRUE(sh.coalescer().try_claim(7));  // a leader mid-read elsewhere
  const std::vector<BlockId> walk{1, 7, 2};
  SharedHierarchy::FetchTotals t;
  std::atomic<bool> done{false};
  std::thread walker([&] {
    t = sh.fetch_all(walk, e);
    done = true;
  });
  while (sh.coalescer().stats().coalesced_waits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(done.load());  // parked on 7
  sh.preload(7);               // the leader's read lands...
  sh.coalescer().complete(7);  // ...and the claim is released
  walker.join();
  EXPECT_EQ(t.coalesced, 1u);
  EXPECT_EQ(t.fast_misses, 2u);  // 1 and 2; 7 was served by the wait
  EXPECT_EQ(sh.stats().demand_backing_reads, 2u);
  EXPECT_TRUE(sh.resident_fast(1));
  EXPECT_TRUE(sh.resident_fast(2));
  EXPECT_EQ(sh.coalescer().in_flight_count(), 0u);
  sh.end_step(e);
}

TEST(SharedHierarchy, DropResidentKeepsMissingIdsInOrder) {
  SharedHierarchy sh(make_two_level(4, 8));
  sh.preload(2);
  sh.preload(5);
  std::vector<BlockId> ids{5, 1, 2, 9, 3};
  const usize kept = sh.drop_resident(ids);
  ASSERT_EQ(kept, 3u);
  EXPECT_EQ(std::vector<BlockId>(ids.begin(), ids.begin() + 3),
            (std::vector<BlockId>{1, 9, 3}));
}

}  // namespace
}  // namespace vizcache
