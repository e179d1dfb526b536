#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace vizcache {
namespace {

TEST(MetricCounter, StartsAtZeroAndAccumulates) {
  MetricCounter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricGauge, SetAndAdd) {
  MetricGauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 3.25);
}

TEST(MetricHistogram, BucketsObservationsByUpperBound) {
  MetricHistogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bounds are inclusive upper bounds)
  h.observe(7.0);    // <= 10
  h.observe(1000.0); // overflow
  HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 0u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 1008.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(MetricHistogram, RejectsBadBounds) {
  EXPECT_THROW(MetricHistogram({}), InvalidArgument);
  EXPECT_THROW(MetricHistogram({1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(MetricHistogram({2.0, 1.0}), InvalidArgument);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableInstruments) {
  MetricsRegistry reg;
  MetricCounter& a = reg.counter("cache.dram.hits");
  a.inc(3);
  MetricCounter& b = reg.counter("cache.dram.hits");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  reg.gauge("pipeline.total_seconds").set(1.0);
  reg.histogram("hierarchy.demand.latency_seconds").observe(0.001);
  EXPECT_EQ(&reg.gauge("pipeline.total_seconds"),
            &reg.gauge("pipeline.total_seconds"));
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.histograms.size(), 1u);
}

TEST(MetricsRegistry, RejectsMalformedNames) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter(""), InvalidArgument);
  EXPECT_THROW(reg.counter("Cache.hits"), InvalidArgument);
  EXPECT_THROW(reg.counter("cache hits"), InvalidArgument);
  EXPECT_THROW(reg.counter(".cache.hits"), InvalidArgument);
  EXPECT_THROW(reg.counter("cache.hits."), InvalidArgument);
  EXPECT_NO_THROW(reg.counter("cache.l2_hits.v3"));
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("b.two").inc(2);
  reg.counter("a.one").inc(1);
  reg.gauge("g.x").set(0.5);
  reg.histogram("h.lat", {1.0}).observe(0.25);
  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.one");  // std::map iteration order
  EXPECT_EQ(snap.counters[1].name, "b.two");
  EXPECT_TRUE(snap.has_counter("a.one"));
  EXPECT_FALSE(snap.has_counter("c.three"));
  EXPECT_EQ(snap.counter("b.two"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauge("g.x"), 0.5);
  EXPECT_EQ(snap.histogram("h.lat").count, 1u);
  EXPECT_THROW(snap.counter("missing"), InvalidArgument);
  EXPECT_THROW(snap.gauge("missing"), InvalidArgument);
  EXPECT_THROW(snap.histogram("missing"), InvalidArgument);
}

// A hook's values are read when the snapshot is taken and merged into the
// registry's own, every list still sorted by name.
TEST(MetricsRegistry, SnapshotHookMergesInNameOrder) {
  MetricsRegistry reg;
  reg.counter("b.registry").inc(2);
  reg.gauge("m.registry").set(1.0);
  u64 external = 5;
  reg.add_snapshot_hook([&external](MetricsSnapshot& out) {
    out.add_counter("c.hook", 7);
    out.add_counter("a.hook", external);
    out.add_gauge("z.hook", 0.25);
  });
  MetricsSnapshot snap = reg.snapshot();
  std::vector<std::string> counters, gauges;
  for (const auto& c : snap.counters) counters.push_back(c.name);
  for (const auto& g : snap.gauges) gauges.push_back(g.name);
  EXPECT_EQ(counters,
            (std::vector<std::string>{"a.hook", "b.registry", "c.hook"}));
  EXPECT_EQ(gauges, (std::vector<std::string>{"m.registry", "z.hook"}));
  EXPECT_EQ(snap.counter("a.hook"), 5u);
  EXPECT_EQ(snap.counter("b.registry"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauge("z.hook"), 0.25);
  external = 6;
  EXPECT_EQ(reg.snapshot().counter("a.hook"), 6u);
}

// While the hook runs, another thread registers an instrument: that takes the
// registry lock, so it gets through only if snapshot() released it. A held
// lock makes the hook time out and report 0 instead of hanging the test.
TEST(MetricsRegistry, SnapshotHookRunsWithTheRegistryLockFree) {
  MetricsRegistry reg;
  std::promise<void> in_hook;
  std::promise<void> registered;
  std::future<void> registered_f = registered.get_future();
  reg.add_snapshot_hook([&](MetricsSnapshot& out) {
    in_hook.set_value();
    const bool lock_free = registered_f.wait_for(std::chrono::seconds(10)) ==
                           std::future_status::ready;
    out.add_counter("hook.lock_free", lock_free ? 1 : 0);
  });
  std::thread other([&] {
    in_hook.get_future().wait();
    reg.counter("late.counter");
    registered.set_value();
  });
  const MetricsSnapshot snap = reg.snapshot();
  other.join();
  EXPECT_EQ(snap.counter("hook.lock_free"), 1u);
}

TEST(MetricsSnapshot, AddRejectsTakenAndMalformedNames) {
  MetricsRegistry reg;
  reg.counter("a.one");
  reg.add_snapshot_hook(
      [](MetricsSnapshot& out) { out.add_counter("a.one", 1); });
  EXPECT_THROW(reg.snapshot(), InvalidArgument);
  MetricsSnapshot snap;
  snap.add_gauge("g.x", 1.0);
  EXPECT_THROW(snap.add_gauge("g.x", 2.0), InvalidArgument);
  EXPECT_THROW(snap.add_counter("Bad Name", 1), InvalidArgument);
  EXPECT_DOUBLE_EQ(snap.gauge("g.x"), 1.0);
}

// A histogram built outside any registry enters a snapshot whole, at its
// name-sorted place, like add_counter / add_gauge.
TEST(MetricsSnapshot, AddHistogramKeepsNameOrder) {
  MetricsRegistry reg;
  reg.histogram("m.registry", {1.0}).observe(0.5);
  MetricsSnapshot snap = reg.snapshot();
  MetricHistogram local({1.0, 10.0});
  local.observe(2.0);
  local.observe(20.0);
  snap.add_histogram("z.local", local.snapshot());
  snap.add_histogram("a.local", local.snapshot());
  ASSERT_EQ(snap.histograms.size(), 3u);
  EXPECT_EQ(snap.histograms[0].name, "a.local");
  EXPECT_EQ(snap.histograms[1].name, "m.registry");
  EXPECT_EQ(snap.histograms[2].name, "z.local");
  const HistogramSnapshot& h = snap.histogram("z.local");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.buckets, (std::vector<u64>{0, 1, 1}));
  EXPECT_DOUBLE_EQ(h.sum, 22.0);
  EXPECT_THROW(snap.add_histogram("m.registry", local.snapshot()),
               InvalidArgument);
}

// Golden snapshot of the metrics export that check_metrics_snapshot.py
// reads. Deliberately brittle, like the Chrome-trace golden: any change to
// the file format must be a conscious decision here too.
TEST(MetricsSnapshot, WriteJsonGolden) {
  MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("g.ratio").set(0.25);
  reg.gauge("g.inf").set(std::numeric_limits<double>::infinity());
  MetricHistogram& h = reg.histogram("h.lat", {1e-6, 0.5});
  h.observe(0.25);
  h.observe(2.0);
  const std::string path = testing::TempDir() + "/vizcache_metrics_test.json";
  reg.snapshot().write_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const std::string expected = R"({
  "counters": {
    "a.count": 3
  },
  "gauges": {
    "g.inf": null,
    "g.ratio": 0.25
  },
  "histograms": {
    "h.lat": {
      "count": 2,
      "sum": 2.25,
      "min": 0.25,
      "max": 2,
      "buckets": {
        "le_1e-06": 0,
        "le_0.5": 1,
        "le_inf": 1
      }
    }
  }
}
)";
  EXPECT_EQ(content, expected);
}

TEST(MetricsSnapshot, WriteJsonThrowsOnBadPath) {
  MetricsRegistry reg;
  reg.counter("a.count").inc();
  EXPECT_THROW(reg.snapshot().write_json("/nonexistent-dir/metrics.json"),
               IoError);
}

TEST(LatencyBounds, AscendingAndSpanMicrosecondToSecond) {
  std::vector<double> b = latency_seconds_bounds();
  ASSERT_GE(b.size(), 2u);
  for (usize i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  EXPECT_DOUBLE_EQ(b.front(), 1e-6);
  EXPECT_DOUBLE_EQ(b.back(), 1.0);
}

// Concurrency: many threads hammering the same registry — registrations
// racing with increments, observations and snapshots. Exactness of the
// totals is asserted; TSan (the sanitizer CI job) checks the rest.
TEST(MetricsRegistryStress, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  constexpr usize kThreads = 8;
  constexpr u64 kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (usize t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      MetricCounter& c = reg.counter("stress.count");
      MetricGauge& g = reg.gauge("stress.gauge");
      MetricHistogram& h = reg.histogram("stress.hist", {0.5});
      for (u64 i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
        if (i % 100 == 0) h.observe((i / 100) % 2 == 0 ? 0.25 : 0.75);
      }
    });
  }
  // Snapshot concurrently with the writers: must be safe (values torn only
  // at instrument granularity, never corrupt).
  MetricsSnapshot mid = reg.snapshot();
  EXPECT_LE(mid.counters.size(), 1u);
  for (std::thread& t : threads) t.join();

  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("stress.count"), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.gauge("stress.gauge"),
                   static_cast<double>(kThreads * kPerThread));
  const HistogramSnapshot& h = snap.histogram("stress.hist");
  EXPECT_EQ(h.count, kThreads * (kPerThread / 100));
  EXPECT_EQ(h.buckets[0] + h.buckets[1], h.count);
}

}  // namespace
}  // namespace vizcache
