#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <span>
#include <thread>

#include "render/raycaster.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace vizcache::e2e {

usize Options::count(usize full, usize smoke_count) const {
  if (smoke) return smoke_count;
  const double scaled = static_cast<double>(full) * seconds / 8.0;
  return std::max<usize>(1, static_cast<usize>(std::lround(scaled)));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const usize lo = static_cast<usize>(rank);
  const usize hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

namespace {

/// 32 Ki words (128 KiB): resident in the L2 of any current server core.
constexpr usize kCalibrationWords = usize{1} << 15;
constexpr u32 kCalibrationSteps = u32{1} << 16;
/// Time of one calibration unit on the reference host when nothing else
/// loads it (README.md, "Host speed").
constexpr double kReferenceUnitNs = 300e3;
/// Windows of a timed loop.
constexpr usize kWindows = 10;
/// Loop statistics read the quieter quarter of the windows: the 25th
/// percentile of their latencies, the 75th of their rates.
constexpr double kQuietQuarter = 0.25;

/// One calibration unit: a chain of dependent reads, each address taken
/// from the previous word read, with a multiply-add per read.
double calibration_unit(const std::vector<u32>& words) {
  u32 at = 0;
  double acc = 0.0;
  for (u32 i = 0; i < kCalibrationSteps; ++i) {
    const u32 w = words[at];
    acc = acc * 0.999 + static_cast<double>(w & 0xFFu);
    at = (w ^ i) & static_cast<u32>(kCalibrationWords - 1);
  }
  return acc;
}

std::vector<u32> calibration_words() {
  std::vector<u32> words(kCalibrationWords);
  Rng rng(0xCA1B);
  for (u32& w : words) w = static_cast<u32>(rng.next_u64());
  return words;
}

/// Nanoseconds of one calibration unit, timed after an untimed one that
/// warms the buffer.
double time_unit(const std::vector<u32>& words) {
  volatile double sink = calibration_unit(words);
  const u64 t0 = now_ns();
  sink = sink + calibration_unit(words);
  return static_cast<double>(now_ns() - t0);
}

}  // namespace

HostSpeed::HostSpeed(usize capacity, bool all_cpus)
    : words_(all_cpus ? std::vector<u32>{} : calibration_words()) {
  samples_.reserve(capacity);
  if (!all_cpus) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  VIZ_CHECK(::sched_getaffinity(0, sizeof allowed, &allowed) == 0,
            "sched_getaffinity failed");
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  {
    const MutexLock lock(mutex_);
    unit_ns_.assign(cpus.size(), 0.0);
  }
  for (usize i = 0; i < cpus.size(); ++i) {
    pinned_.emplace_back([this, cpu = cpus[i], i] { pinned_loop(cpu, i); });
  }
}

HostSpeed::~HostSpeed() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : pinned_) t.join();
}

void HostSpeed::pinned_loop(int cpu, usize slot) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // Best effort: unpinned, the sample still covers every CPU while the
  // program is idle.
  (void)::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
  const std::vector<u32> words = calibration_words();
  u64 seen = 0;
  for (;;) {
    {
      const MutexLock lock(mutex_);
      while (!stop_ && round_ == seen) wake_.wait(mutex_);
      if (stop_) return;
      seen = round_;
    }
    const double ns = time_unit(words);
    const MutexLock lock(mutex_);
    unit_ns_[slot] = ns;
    if (--pending_ == 0) done_.notify_one();
  }
}

void HostSpeed::sample() noexcept {
  if (samples_.size() == samples_.capacity()) return;
  const u64 t0 = now_ns();
  double speed = 1.0;
  if (pinned_.empty()) {
    speed = kReferenceUnitNs / time_unit(words_);
  } else {
    const MutexLock lock(mutex_);
    pending_ = pinned_.size();
    ++round_;
    wake_.notify_all();
    while (pending_ != 0) done_.wait(mutex_);
    speed = 0.0;
    for (double ns : unit_ns_) speed += kReferenceUnitNs / ns;
    speed /= static_cast<double>(unit_ns_.size());
  }
  samples_.push_back({t0, now_ns(), speed});
}

double HostSpeed::speed(u64 from_ns, u64 to_ns) const {
  if (samples_.empty()) return 1.0;
  std::vector<double> speeds;
  const Sample* nearest = &samples_.front();
  u64 nearest_gap = ~u64{0};
  for (const Sample& s : samples_) {
    if (s.end_ns >= from_ns && s.end_ns < to_ns) speeds.push_back(s.speed);
    const u64 gap = s.end_ns < from_ns ? from_ns - s.end_ns
                    : s.end_ns >= to_ns ? s.end_ns - to_ns
                                        : 0;
    if (gap < nearest_gap) {
      nearest_gap = gap;
      nearest = &s;
    }
  }
  if (speeds.empty()) speeds.push_back(nearest->speed);
  return median(std::move(speeds));
}

double HostSpeed::sampling_ns(u64 from_ns, u64 to_ns) const {
  double total = 0.0;
  for (const Sample& s : samples_) {
    const u64 lo = std::max(from_ns, s.start_ns);
    const u64 hi = std::min(to_ns, s.end_ns);
    if (hi > lo) total += static_cast<double>(hi - lo);
  }
  return total;
}

LoopWindows::LoopWindows(u64 start_ns, u64 end_ns, const HostSpeed& host)
    : start_ns_(start_ns),
      width_ns_(static_cast<double>(std::max(end_ns, start_ns + 1) - start_ns) /
                kWindows) {
  for (usize w = 0; w < kWindows; ++w) {
    const auto edge = [&](usize i) {
      return start_ns_ + static_cast<u64>(width_ns_ * static_cast<double>(i));
    };
    const u64 lo = edge(w);
    const u64 hi = edge(w + 1);
    speed_.push_back(host.speed(lo, hi));
    const double active_ns =
        static_cast<double>(hi - lo) - host.sampling_ns(lo, hi);
    active_s_.push_back(std::max(active_ns, 1.0) / 1e9);
  }
}

usize LoopWindows::window_of(u64 t) const {
  const double offset = t > start_ns_ ? static_cast<double>(t - start_ns_) : 0.0;
  return std::min(kWindows - 1, static_cast<usize>(offset / width_ns_));
}

Timing LoopWindows::steps_per_s(const std::vector<TimedOp>& ops) const {
  std::vector<double> steps(kWindows, 0.0);
  for (const TimedOp& op : ops) {
    const double a = static_cast<double>(op.start_ns - start_ns_);
    const double b = static_cast<double>(op.end_ns - start_ns_);
    const double length = std::max(b - a, 1.0);
    for (usize w = window_of(op.start_ns); w <= window_of(op.end_ns); ++w) {
      const double lo = std::max(a, static_cast<double>(w) * width_ns_);
      const double hi = std::min(b, static_cast<double>(w + 1) * width_ns_);
      steps[w] += op.steps * std::max(hi - lo, 0.0) / length;
    }
  }
  std::vector<double> reference;
  std::vector<double> wall;
  for (usize w = 0; w < kWindows; ++w) {
    wall.push_back(steps[w] / active_s_[w]);
    reference.push_back(wall.back() / speed_[w]);
  }
  return {percentile(std::move(reference), 1.0 - kQuietQuarter),
          percentile(std::move(wall), 1.0 - kQuietQuarter)};
}

Timing LoopWindows::step_ms(const std::vector<TimedOp>& ops, double p) const {
  std::vector<std::vector<double>> latency(kWindows);
  for (const TimedOp& op : ops) {
    latency[window_of(op.end_ns)].push_back(op.step_ms());
  }
  std::vector<double> reference;
  std::vector<double> wall;
  for (usize w = 0; w < kWindows; ++w) {
    if (latency[w].empty()) continue;
    wall.push_back(percentile(std::move(latency[w]), p));
    reference.push_back(wall.back() * speed_[w]);
  }
  return {percentile(std::move(reference), kQuietQuarter),
          percentile(std::move(wall), kQuietQuarter)};
}

void report_loop(const LoopWindows& windows, const std::vector<TimedOp>& ops,
                 Report& report) {
  report.timing("steps_per_s", windows.steps_per_s(ops), "1/s");
  report.timing("step_p50_ms", windows.step_ms(ops, 0.5), "ms", ops.size());
  report.timing("step_p90_ms", windows.step_ms(ops, 0.9), "ms", ops.size());
  report.metric("bench.host_speed", windows.host_speed(), "ratio");
}

u64 derive_seed(u64 seed, u64 stream) {
  Rng rng(seed ^ (stream * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull));
  return rng.next_u64();
}

CameraPath random_path(double lo_deg, double hi_deg, usize positions, u64 seed,
                       double view_angle_deg) {
  RandomPathSpec spec;
  spec.step_min_deg = lo_deg;
  spec.step_max_deg = hi_deg;
  spec.positions = positions;
  spec.seed = seed;
  spec.view_angle_deg = view_angle_deg;
  return make_random_path(spec);
}

WorkbenchSpec replay_spec(double path_step_deg) {
  // The Fig. 13 world (bench_fig13_latency at ratio 0.5).
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.1;
  spec.target_blocks = 2048;
  spec.cache_ratio = 0.5;
  spec.omega = {12, 24, 3, 2.5, 3.5};
  spec.vicinal_samples = 6;
  spec.path_step_deg = path_step_deg;
  return spec;
}

WorkbenchSpec serving_spec() {
  // The bench_service world.
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.08;
  spec.target_blocks = 256;
  spec.omega = {8, 16, 3, 2.5, 3.5};
  return spec;
}

WorkbenchSpec render_spec() {
  // The bench_render volume; the render workload itself needs no tables,
  // this world only backs its probe phase.
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.1;
  spec.target_blocks = 512;
  return spec;
}

MemoryHierarchy testbed(const Workbench& world) {
  const BlockGrid* grid = &world.grid();
  return MemoryHierarchy::paper_testbed(
      world.dataset_bytes(), world.spec().cache_ratio, PolicyKind::kLru,
      [grid](BlockId id) { return grid->block_bytes(id); });
}

ServiceConfig service_config(const Workbench& world, usize max_sessions) {
  ServiceConfig cfg;
  cfg.max_sessions = max_sessions;
  cfg.app_aware = true;
  cfg.sigma_bits = world.sigma_bits();
  cfg.render_model = world.spec().render_model;
  cfg.lookup_cost = world.spec().lookup_cost;
  cfg.leader_pace_seconds = 0.0;
  return cfg;
}

// ---------------------------------------------------------------------------
// Report

namespace {

/// Shortest text that parses back to exactly `v` (JSON has no NaN/Inf, and
/// no metric here may produce one).
std::string exact_number(double v) {
  VIZ_CHECK(std::isfinite(v), "metric value is not finite");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit, u64 samples, bool exact) {
  if (!std::isfinite(value)) {
    note_failure("metric " + name + " is not finite");
    ++attempted_;
    ++failed_;
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, samples, exact});
}

void Report::timing(const std::string& name, const Timing& value,
                    const std::string& unit, u64 samples) {
  metric(name, value.reference, unit, samples);
  metric("wall." + name, value.wall, unit, samples);
}

void Report::ops(u64 attempted, u64 failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    note_failure("check failed: " + what);
  }
}

void Report::note_failure(const std::string& what) {
  if (std::find(failures_.begin(), failures_.end(), what) == failures_.end()) {
    failures_.push_back(what);
    std::cerr << "bench_e2e[" << workload_ << "]: " << what << "\n";
  }
}

void Report::print(const Options& opt) const {
  std::vector<Entry> metrics = metrics_;
  metrics.push_back({"error_rate",
                     attempted_ ? static_cast<double>(failed_) /
                                      static_cast<double>(attempted_)
                                : 1.0,
                     "fraction", attempted_, false});
  for (const Entry& m : metrics) {
    std::cout << "metric " << workload_ << " " << m.name << " "
              << exact_number(m.value) << " " << m.unit;
    if (m.samples > 0) std::cout << " (n=" << m.samples << ")";
    if (m.exact) std::cout << " [exact]";
    std::cout << "\n";
  }
  std::string json = "{\"workload\": " + json_string(workload_) +
                     ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"seconds\": " + exact_number(opt.seconds) +
                     ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"size\": " + (opt.smoke ? "\"smoke\"" : "\"full\"") +
                     ", \"correct\": " + (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (usize i = 0; i < metrics.size(); ++i) {
    const Entry& m = metrics[i];
    json += (i ? ", " : "") + json_string(m.name) +
            ": {\"value\": " + exact_number(m.value) +
            ", \"unit\": " + json_string(m.unit);
    if (m.samples > 0) json += ", \"n\": " + std::to_string(m.samples);
    if (m.exact) json += ", \"exact\": true";
    json += "}";
  }
  json += "}}";
  std::cout << "RESULT " << json << "\n" << std::flush;
}

// ---------------------------------------------------------------------------
// Spans

SpanRecorder::SpanRecorder(u32 tid, usize capacity)
    : tid_(tid), capacity_(capacity) {
  spans_.reserve(capacity_);
}

i64 SpanRecorder::open(const char* name, u64 request, i64 parent) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, now_ns(), 0, parent, request});
  return static_cast<i64>(spans_.size() - 1);
}

void SpanRecorder::close(i64 index) {
  if (index >= 0) spans_[static_cast<usize>(index)].end_ns = now_ns();
}

void write_trace(const std::string& workload,
                 const std::vector<const SpanRecorder*>& recorders,
                 Report& report) {
  constexpr usize kSpansPerRecorder = 20000;
  const std::string path = "bench_e2e_" + workload + ".trace.json";
  std::ofstream out(path, std::ios::trunc);
  u64 origin = ~u64{0};
  u64 total = 0;
  u64 written = 0;
  u64 dropped = 0;
  for (const SpanRecorder* rec : recorders) {
    for (const Span& s : rec->spans()) origin = std::min(origin, s.start_ns);
    total += rec->spans().size();
    written += std::min(rec->spans().size(), kSpansPerRecorder);
    dropped += rec->dropped();
  }
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  for (const SpanRecorder* rec : recorders) {
    const usize n = std::min(rec->spans().size(), kSpansPerRecorder);
    for (const Span& s : std::span(rec->spans()).first(n)) {
      const std::string name(s.name);
      const std::string layer = name.substr(0, name.find('.'));
      out << (first ? "\n" : ",\n") << "{\"name\": " << json_string(name)
          << ", \"cat\": " << json_string(layer)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << rec->tid()
          << ", \"ts\": " << exact_number(static_cast<double>(s.start_ns - origin) / 1e3)
          << ", \"dur\": " << exact_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << ", \"args\": {\"request\": " << s.request
          << ", \"parent\": " << s.parent << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  report.check(static_cast<bool>(out), "trace written to " + path);
  std::cout << "# trace -> " << path << " (" << written << " of " << total
            << " spans, " << dropped << " past the buffer)\n";
}

void report_trace_overhead(const std::vector<double>& traced,
                           const std::vector<double>& untraced,
                           Report& report) {
  const double base = median(untraced);
  report.metric("bench.trace_overhead_frac",
                base > 0.0 ? (median(traced) - base) / base : 0.0, "fraction",
                traced.size());
}

// ---------------------------------------------------------------------------
// Host

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_description() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return "cpu=\"" + cpu + "\" nproc=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " simd=" + (raycast_packet_native() ? "native" : "fallback") +
         " build=" + VIZCACHE_E2E_BUILD_TYPE;
}

}  // namespace vizcache::e2e
