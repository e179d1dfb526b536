#include "service/request_coalescer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace vizcache {
namespace {

TEST(RequestCoalescer, FirstClaimWinsSecondIsSuppressed) {
  RequestCoalescer rc;
  EXPECT_TRUE(rc.try_claim(7));
  EXPECT_TRUE(rc.in_flight(7));
  EXPECT_EQ(rc.in_flight_count(), 1u);
  EXPECT_FALSE(rc.try_claim(7));

  rc.complete(7);
  EXPECT_FALSE(rc.in_flight(7));
  EXPECT_EQ(rc.in_flight_count(), 0u);
  EXPECT_TRUE(rc.try_claim(7));  // claimable again after completion
  rc.complete(7);

  const RequestCoalescer::Stats s = rc.stats();
  EXPECT_EQ(s.claims, 2u);
  EXPECT_EQ(s.suppressed, 1u);
  EXPECT_EQ(s.completions, 2u);
  EXPECT_EQ(s.coalesced_waits, 0u);
}

TEST(RequestCoalescer, DistinctBlocksDoNotInterfere) {
  RequestCoalescer rc;
  EXPECT_TRUE(rc.try_claim(1));
  EXPECT_TRUE(rc.try_claim(2));
  EXPECT_EQ(rc.in_flight_count(), 2u);
  rc.complete(1);
  EXPECT_FALSE(rc.in_flight(1));
  EXPECT_TRUE(rc.in_flight(2));
  rc.complete(2);
}

TEST(RequestCoalescer, CompleteOfUnclaimedBlockIsNoOp) {
  RequestCoalescer rc;
  rc.complete(42);
  EXPECT_EQ(rc.stats().completions, 0u);
}

TEST(RequestCoalescer, WaitReturnsFalseWhenNothingInFlight) {
  RequestCoalescer rc;
  EXPECT_FALSE(rc.wait(5));
  EXPECT_EQ(rc.stats().coalesced_waits, 0u);
}

TEST(RequestCoalescer, WaitBlocksUntilLeaderCompletes) {
  RequestCoalescer rc;
  ASSERT_TRUE(rc.try_claim(9));
  bool waited = false;
  std::thread waiter([&] { waited = rc.wait(9); });
  // The waiter registers its sleep (coalesced_waits) before blocking; poll
  // for that instead of guessing a sleep long enough for it to arrive.
  while (rc.stats().coalesced_waits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rc.complete(9);
  waiter.join();
  EXPECT_TRUE(waited);
  EXPECT_FALSE(rc.in_flight(9));
  EXPECT_EQ(rc.stats().coalesced_waits, 1u);
}

TEST(RequestCoalescer, ReportMetricsWritesEveryCounter) {
  RequestCoalescer rc;
  EXPECT_TRUE(rc.try_claim(1));
  EXPECT_FALSE(rc.try_claim(1));
  rc.complete(1);
  MetricsSnapshot snap;
  report_metrics(rc.stats(), "svc.coalescer", snap);
  EXPECT_EQ(snap.counter("svc.coalescer.claims"), 1u);
  EXPECT_EQ(snap.counter("svc.coalescer.suppressed"), 1u);
  EXPECT_EQ(snap.counter("svc.coalescer.completions"), 1u);
  EXPECT_EQ(snap.counter("svc.coalescer.coalesced_waits"), 0u);
}

}  // namespace
}  // namespace vizcache
