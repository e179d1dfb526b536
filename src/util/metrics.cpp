#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace vizcache {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_';
    if (!ok) return false;
  }
  return true;
}

void require_valid_name(const std::string& name) {
  VIZ_REQUIRE(valid_metric_name(name),
              "metric name must be lowercase dotted [a-z0-9._]: '" + name + "'");
}

/// Inserts `entry` into the name-sorted `entries`, refusing a second entry
/// of the same name.
template <typename Entry>
void insert_sorted(std::vector<Entry>& entries, Entry entry) {
  require_valid_name(entry.name);
  auto it = std::lower_bound(
      entries.begin(), entries.end(), entry.name,
      [](const Entry& e, const std::string& name) { return e.name < name; });
  VIZ_REQUIRE(it == entries.end() || it->name != entry.name,
              "metric already in snapshot: '" + entry.name + "'");
  entries.insert(it, std::move(entry));
}

}  // namespace

MetricHistogram::MetricHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  VIZ_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket bound");
  VIZ_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                  std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                      bounds_.end(),
              "histogram bounds must be strictly ascending");
}

void MetricHistogram::observe(double value) {
  // Inclusive upper bounds (Prometheus `le` convention): a value exactly on
  // a bound lands in that bound's bucket. lower_bound = first bound >= value.
  const usize bucket =
      static_cast<usize>(std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                         bounds_.begin());
  MutexLock lock(mutex_);
  ++buckets_[bucket];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

u64 MetricHistogram::count() const {
  MutexLock lock(mutex_);
  return count_;
}

double MetricHistogram::sum() const {
  MutexLock lock(mutex_);
  return sum_;
}

HistogramSnapshot MetricHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  MutexLock lock(mutex_);
  snap.buckets = buckets_;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  return snap;
}

std::vector<double> latency_seconds_bounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0};
}

bool MetricsSnapshot::has_counter(const std::string& name) const {
  return std::any_of(counters.begin(), counters.end(),
                     [&](const CounterValue& c) { return c.name == name; });
}

bool MetricsSnapshot::has_gauge(const std::string& name) const {
  return std::any_of(gauges.begin(), gauges.end(),
                     [&](const GaugeValue& g) { return g.name == name; });
}

bool MetricsSnapshot::has_histogram(const std::string& name) const {
  return std::any_of(histograms.begin(), histograms.end(),
                     [&](const HistogramValue& h) { return h.name == name; });
}

u64 MetricsSnapshot::counter(const std::string& name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  throw InvalidArgument("no such counter in snapshot: " + name);
}

double MetricsSnapshot::gauge(const std::string& name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return g.value;
  }
  throw InvalidArgument("no such gauge in snapshot: " + name);
}

const HistogramSnapshot& MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return h.hist;
  }
  throw InvalidArgument("no such histogram in snapshot: " + name);
}

void MetricsSnapshot::add_counter(const std::string& name, u64 value) {
  insert_sorted(counters, CounterValue{name, value});
}

void MetricsSnapshot::add_gauge(const std::string& name, double value) {
  insert_sorted(gauges, GaugeValue{name, value});
}

void MetricsSnapshot::add_histogram(const std::string& name,
                                    HistogramSnapshot hist) {
  insert_sorted(histograms, HistogramValue{name, std::move(hist)});
}

namespace {

using JsonEntries = std::vector<std::pair<std::string, std::string>>;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN/Inf
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

/// One JSON object nested `depth` levels deep: an entry per line, indented
/// two spaces per level, or `{}` when empty. Values are already JSON text.
std::string json_object(const JsonEntries& entries, usize depth) {
  if (entries.empty()) return "{}";
  const std::string pad(2 * (depth + 1), ' ');
  std::string out = "{";
  for (usize i = 0; i < entries.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad + "\"" + entries[i].first + "\": " + entries[i].second;
  }
  // Appended, not `"\n" + std::string(...)`: GCC 12's -O3 -Wrestrict
  // misreports that operator+.
  out += '\n';
  out.append(2 * depth, ' ');
  out += '}';
  return out;
}

}  // namespace

void MetricsSnapshot::write_json(const std::string& path) const {
  JsonEntries counter_entries;
  for (const CounterValue& c : counters) {
    counter_entries.emplace_back(c.name, std::to_string(c.value));
  }
  JsonEntries gauge_entries;
  for (const GaugeValue& g : gauges) {
    gauge_entries.emplace_back(g.name, json_number(g.value));
  }
  JsonEntries histogram_entries;
  for (const HistogramValue& h : histograms) {
    JsonEntries buckets;
    for (usize i = 0; i < h.hist.buckets.size(); ++i) {
      buckets.emplace_back(i < h.hist.bounds.size()
                               ? "le_" + json_number(h.hist.bounds[i])
                               : std::string("le_inf"),
                           std::to_string(h.hist.buckets[i]));
    }
    histogram_entries.emplace_back(
        h.name, json_object({{"count", std::to_string(h.hist.count)},
                             {"sum", json_number(h.hist.sum)},
                             {"min", json_number(h.hist.min)},
                             {"max", json_number(h.hist.max)},
                             {"buckets", json_object(buckets, 3)}},
                            2));
  }
  const std::string text =
      json_object({{"counters", json_object(counter_entries, 1)},
                   {"gauges", json_object(gauge_entries, 1)},
                   {"histograms", json_object(histogram_entries, 1)}},
                  0);

  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("cannot open metrics output for writing: " + path);
  out << text << "\n";
  if (!out) throw IoError("metrics write failed: " + path);
}

MetricCounter& MetricsRegistry::counter(const std::string& name) {
  require_valid_name(name);
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<MetricCounter>();
  return *slot;
}

MetricGauge& MetricsRegistry::gauge(const std::string& name) {
  require_valid_name(name);
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<MetricGauge>();
  return *slot;
}

MetricHistogram& MetricsRegistry::histogram(const std::string& name,
                                            std::vector<double> bounds) {
  require_valid_name(name);
  if (bounds.empty()) bounds = latency_seconds_bounds();
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<MetricHistogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::add_snapshot_hook(SnapshotHook hook) {
  VIZ_REQUIRE(hook != nullptr, "snapshot hook must be callable");
  MutexLock lock(mutex_);
  hooks_.push_back(std::move(hook));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::vector<std::pair<std::string, const MetricCounter*>> counters;
  std::vector<std::pair<std::string, const MetricGauge*>> gauges;
  std::vector<std::pair<std::string, const MetricHistogram*>> histograms;
  std::vector<SnapshotHook> hooks;
  {
    MutexLock lock(mutex_);
    for (const auto& [name, c] : counters_) counters.emplace_back(name, c.get());
    for (const auto& [name, g] : gauges_) gauges.emplace_back(name, g.get());
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(name, h.get());
    }
    hooks = hooks_;
  }
  // std::map iteration already yields names sorted ascending.
  MetricsSnapshot snap;
  snap.counters.reserve(counters.size());
  for (const auto& [name, c] : counters) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges.size());
  for (const auto& [name, g] : gauges) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms.size());
  for (const auto& [name, h] : histograms) {
    snap.histograms.push_back({name, h->snapshot()});
  }
  for (const SnapshotHook& hook : hooks) hook(snap);
  return snap;
}

}  // namespace vizcache
