#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/annotated_mutex.hpp"
#include "util/types.hpp"

namespace vizcache {

/// Monotonically increasing counter. Increments are relaxed atomics: hot
/// paths (cache hits, fetch loops, prefetcher workers) pay one uncontended
/// RMW and no lock. Exact totals are still guaranteed — relaxed ordering
/// only permits reordering against *other* memory, not lost increments.
class MetricCounter {
 public:
  void inc(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Point-in-time double value, settable and accumulable from any thread.
/// add() is a CAS loop rather than std::atomic<double>::fetch_add so the
/// class stays portable to standard libraries without lock-free FP RMW.
class MetricGauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-only copy of a histogram's state at snapshot time.
struct HistogramSnapshot {
  std::vector<double> bounds;   ///< ascending upper bounds; +inf is implicit
  std::vector<u64> buckets;     ///< bounds.size() + 1 entries
  u64 count = 0;
  double sum = 0.0;
  double min = 0.0;             ///< undefined (0) while count == 0
  double max = 0.0;
};

/// Value-distribution histogram over fixed upper-bound buckets (the last
/// bucket is the +inf overflow). observe() takes the histogram's own leaf
/// Mutex — cheap at simulator rates, and exact under concurrency.
class MetricHistogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit MetricHistogram(std::vector<double> bounds);

  void observe(double value) EXCLUDES(mutex_);

  u64 count() const EXCLUDES(mutex_);
  double sum() const EXCLUDES(mutex_);
  HistogramSnapshot snapshot() const EXCLUDES(mutex_);

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  const std::vector<double> bounds_;
  mutable Mutex mutex_;
  std::vector<u64> buckets_ GUARDED_BY(mutex_);
  u64 count_ GUARDED_BY(mutex_) = 0;
  double sum_ GUARDED_BY(mutex_) = 0.0;
  double min_ GUARDED_BY(mutex_) = 0.0;
  double max_ GUARDED_BY(mutex_) = 0.0;
};

/// Default bucket bounds for simulated-latency histograms: one bucket per
/// decade from 1 microsecond to 1 second, spanning DRAM touch to HDD seek.
std::vector<double> latency_seconds_bounds();

/// Flattened, name-sorted view of a whole registry (value types only, no
/// references into the registry) — what exporters and RunResult carry.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    u64 value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    HistogramSnapshot hist;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  bool has_counter(const std::string& name) const;
  bool has_gauge(const std::string& name) const;
  bool has_histogram(const std::string& name) const;
  /// Value of a named counter/gauge; throws InvalidArgument when absent.
  u64 counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramSnapshot& histogram(const std::string& name) const;

  /// Insert a counter / gauge / histogram at its name-sorted place: how a
  /// value that lives in a component's own record, not in a registry, enters
  /// a snapshot (each stats type's report_metrics, RunResult::summarize).
  /// Throws InvalidArgument on a malformed name or one this snapshot already
  /// holds.
  void add_counter(const std::string& name, u64 value);
  void add_gauge(const std::string& name, double value);
  void add_histogram(const std::string& name, HistogramSnapshot hist);

  /// Writes the snapshot as pretty-printed JSON (2-space indent) + '\n' to
  /// `path`: {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count, sum, min, max, "buckets": {"le_<bound>": n, ..., "le_inf": n}}}}.
  /// Non-finite values are written as null. Keys are emitted unescaped, so
  /// names must be registry names ([a-z0-9._]). Throws IoError on failure.
  void write_json(const std::string& path) const;
};

/// Named metrics registry: the serving-observability substrate. Components
/// with no stats struct of their own (the service, the net server) register
/// their instruments once by name and then increment without the registry
/// lock — counter/gauge/histogram references stay valid for the registry's
/// lifetime (instruments are heap-owned and never removed). A component that
/// keeps a stats struct registers nothing: its counters are read when a
/// snapshot is taken, through a snapshot hook or a report_metrics call on the
/// finished snapshot. A pipeline run keeps no registry at all: its snapshot
/// is written once, at run end, by RunResult::summarize.
///
/// Naming convention (see DESIGN.md "Observability"):
/// `<component>.<subject>.<metric>` in lowercase [a-z0-9._] with unit
/// suffixes `_seconds` / `_bytes` where applicable, e.g.
/// `cache.dram.hits`, `hierarchy.prefetch.backing_reads`,
/// `pipeline.render_seconds`.
///
/// Thread-safety: registration takes the registry's leaf Mutex; increments
/// on the returned instruments are atomic (counters/gauges) or take the
/// instrument's own leaf Mutex (histograms). snapshot() collects instrument
/// pointers and hooks under the registry lock and reads and runs them after
/// releasing it, so no two vizcache locks are ever held at once (DESIGN.md
/// leaf-lock rule).
class MetricsRegistry {
 public:
  /// Writes values the registry does not own into a snapshot.
  using SnapshotHook = std::function<void(MetricsSnapshot&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Names must match the convention above.
  MetricCounter& counter(const std::string& name) EXCLUDES(mutex_);
  MetricGauge& gauge(const std::string& name) EXCLUDES(mutex_);
  /// `bounds` applies only when the histogram is created by this call
  /// (defaults to latency_seconds_bounds()); a later lookup of an existing
  /// name returns the original instrument unchanged.
  MetricHistogram& histogram(const std::string& name,
                             std::vector<double> bounds = {}) EXCLUDES(mutex_);

  /// Run `hook` in every later snapshot(), after the instruments are read
  /// and with the registry lock released, so it may take its component's
  /// own leaf locks, one at a time. It writes through
  /// MetricsSnapshot::add_counter/add_gauge, under names no instrument of
  /// this registry uses. What it reads must outlive the registry's last
  /// snapshot().
  void add_snapshot_hook(SnapshotHook hook) EXCLUDES(mutex_);

  MetricsSnapshot snapshot() const EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<MetricGauge>> gauges_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_
      GUARDED_BY(mutex_);
  std::vector<SnapshotHook> hooks_ GUARDED_BY(mutex_);
};

}  // namespace vizcache
