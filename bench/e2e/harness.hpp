#pragma once

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/workbench.hpp"
#include "geom/path.hpp"
#include "service/block_service.hpp"
#include "util/annotated_mutex.hpp"
#include "util/types.hpp"

namespace vizcache::e2e {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  u64 seed = 42;
  /// Work scale. Every count is sized so a workload measures about this many
  /// seconds on the reference host (README.md). The work is a count, not a
  /// duration, so two builds given the same options do identical work.
  double seconds = 8.0;
  bool trace = false;
  bool smoke = false;  ///< size=smoke: a few units per workload, every check on

  /// `full` units at seconds=8 scaled by seconds/8 (at least 1), or `smoke`.
  usize count(usize full, usize smoke_count) const;
  /// Set-up repetitions; setup_s is their median.
  usize setups() const { return smoke ? 1 : 5; }
  /// Trace runs record spans on every other unit of the timed loop, so one
  /// run measures its own tracing overhead against the untraced units.
  bool traced(usize unit) const { return trace && unit % 2 == 0; }
};

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}
inline double seconds_since(u64 t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// Linearly interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// One timed operation of a workload's loop, carrying `steps` camera steps.
struct TimedOp {
  u64 start_ns = 0;
  u64 end_ns = 0;
  double steps = 1.0;

  /// Wall milliseconds per camera step of this operation.
  double step_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6 / steps;
  }
};

/// Host speed against the reference host (README.md, "Host speed"), sampled
/// between the operations of a timed loop while no thread of the program
/// runs. A sample times one calibration unit, a fixed chain of dependent
/// reads and multiply-adds over an L2-resident buffer, right after an
/// untimed unit that warms the buffer, so what the program left in memory
/// or the caches does not change it.
class HostSpeed {
 public:
  /// Room for `capacity` samples; sample() never allocates. A workload that
  /// runs on one thread samples that thread (`all_cpus` false); one that
  /// runs on every CPU samples every CPU at once, one pinned thread each.
  HostSpeed(usize capacity, bool all_cpus);
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Take one sample: about 0.6 ms on the reference host.
  void sample() noexcept;
  /// Median speed of the samples that ended in [from_ns, to_ns), or of the
  /// sample nearest that span when none did. A sample's speed is the
  /// reference unit time ÷ its unit time (averaged over CPUs): above 1 when
  /// the host ran faster than the reference.
  double speed(u64 from_ns, u64 to_ns) const;
  /// Nanoseconds of [from_ns, to_ns) spent sampling.
  double sampling_ns(u64 from_ns, u64 to_ns) const;

 private:
  struct Sample {
    u64 start_ns = 0;
    u64 end_ns = 0;
    double speed = 0.0;
  };
  /// Body of the pinned sampling thread of CPU `cpu`, slot `slot`.
  void pinned_loop(int cpu, usize slot);

  const std::vector<u32> words_;  ///< the calling thread's buffer
  // analyze: allow(lock-unguarded-field): only sample() writes it, and its
  // callers are serialised: the loop's thread, or the barrier completion
  // that runs while every viewer waits.
  std::vector<Sample> samples_;
  Mutex mutex_;
  CondVar wake_;
  CondVar done_;
  u64 round_ GUARDED_BY(mutex_) = 0;
  usize pending_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::vector<double> unit_ns_ GUARDED_BY(mutex_);  ///< per pinned thread
  /// Declared last: joined in the destructor before the fields above go.
  // analyze: allow(lock-unguarded-field): filled in the constructor and
  // joined in the destructor; only read in between.
  std::vector<std::thread> pinned_;
};

/// A wall-clock metric as measured and at the reference host's speed.
struct Timing {
  double reference = 0.0;
  double wall = 0.0;
};

/// Run `build` once per set-up (Options::setups), sampling the host after
/// each. `build` tears down the previous set-up and returns the seconds its
/// new one took; the result is their median.
template <typename Build>
Timing time_setups(const Options& opt, HostSpeed& host, Build&& build) {
  std::vector<double> seconds;
  const u64 first = now_ns();
  for (usize k = 0; k < opt.setups(); ++k) {
    seconds.push_back(build());
    host.sample();
  }
  const double wall = median(seconds);
  return {wall * host.speed(first, now_ns()), wall};
}

/// The timed loop [start_ns, end_ns) cut into ten equal windows. Each loop
/// statistic is taken per window, at the host speed sampled in that window,
/// and reported for the quieter quarter of the windows (the 25th percentile
/// of their latencies, the 75th of their rates). Load from other tenants of
/// the host only ever slows the program, so it moves a statistic only when
/// it covers most of the run.
class LoopWindows {
 public:
  LoopWindows(u64 start_ns, u64 end_ns, const HostSpeed& host);

  /// Camera steps per second: steps credited pro rata to the windows an
  /// operation overlaps, over each window's time less its sampling pauses.
  Timing steps_per_s(const std::vector<TimedOp>& ops) const;
  /// The p-quantile (p in [0, 1]) of the milliseconds per step of the
  /// operations that end in each window.
  Timing step_ms(const std::vector<TimedOp>& ops, double p) const;
  /// Median host speed over the windows.
  double host_speed() const { return median(speed_); }

 private:
  usize window_of(u64 t) const;

  u64 start_ns_;
  double width_ns_;
  std::vector<double> speed_;    ///< host speed per window
  std::vector<double> active_s_; ///< window seconds less sampling pauses
};

/// Independent seed for input stream `stream` of a run seeded `seed`.
u64 derive_seed(u64 seed, u64 stream);

/// The paper's random path: each step turns the view by [lo, hi] degrees.
CameraPath random_path(double lo_deg, double hi_deg, usize positions, u64 seed,
                       double view_angle_deg = 10.0);

/// Worlds of the workloads (README.md lists their parameters).
WorkbenchSpec replay_spec(double path_step_deg);
WorkbenchSpec serving_spec();
WorkbenchSpec render_spec();

/// A cold LRU paper testbed (DRAM over SSD over HDD) sized for `world`.
MemoryHierarchy testbed(const Workbench& world);
/// App-aware service configuration over `world`, leader pacing pinned to 0
/// so wall-clock numbers measure the program, not a sleep.
ServiceConfig service_config(const Workbench& world, usize max_sessions);

/// Metrics, operation counts and check results of one workload run.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Record a metric. `samples` > 0 is printed with percentiles; `exact`
  /// marks a value that must repeat bit for bit at a fixed seed.
  void metric(const std::string& name, double value, const std::string& unit,
              u64 samples = 0, bool exact = false);
  /// Record an end-to-end wall-clock metric: `name` at the reference host's
  /// speed, and `wall.<name>` as measured.
  void timing(const std::string& name, const Timing& value,
              const std::string& unit, u64 samples = 0);
  /// Operations of the timed loop: `failed` of them failed or were refused.
  void ops(u64 attempted, u64 failed);
  /// A correctness check outside the loop: one attempt, one failure if !ok.
  void check(bool ok, const std::string& what);
  /// Note one failure message (printed once per distinct text, to stderr).
  void note_failure(const std::string& what);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }

  /// Human-readable `metric` lines, then the machine-readable RESULT line.
  void print(const Options& opt) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    u64 samples = 0;
    bool exact = false;
  };
  std::string workload_;
  std::vector<Entry> metrics_;
  std::vector<std::string> failures_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

/// Reports steps_per_s, step_p50_ms and step_p90_ms of `ops`, and the
/// loop's bench.host_speed.
void report_loop(const LoopWindows& windows, const std::vector<TimedOp>& ops,
                 Report& report);

/// One span: a bench call into a layer's public function.
struct Span {
  const char* name = "";  ///< "<layer>.<call>", a string literal
  u64 start_ns = 0;
  u64 end_ns = 0;
  i64 parent = -1;        ///< index of the enclosing span in the same recorder
  u64 request = 0;        ///< spans of one request share this id
};

/// Bench-local span recorder for one thread. The buffer is reserved up
/// front, so recording never allocates; spans past capacity are dropped
/// and counted.
class SpanRecorder {
 public:
  SpanRecorder(u32 tid, usize capacity);

  /// Open a span; returns its index, or -1 when the buffer is full.
  i64 open(const char* name, u64 request, i64 parent);
  void close(i64 index);

  u32 tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }
  u64 dropped() const { return dropped_; }

 private:
  u32 tid_;
  usize capacity_;
  std::vector<Span> spans_;
  u64 dropped_ = 0;
};

/// RAII span; records nothing when the recorder is null (untraced units).
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name, u64 request,
            i64 parent = -1)
      : rec_(rec), index_(rec ? rec->open(name, request, parent) : -1) {}
  ~SpanScope() {
    if (rec_) rec_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  i64 index() const { return index_; }

 private:
  SpanRecorder* rec_;
  i64 index_;
};

/// Write the recorders' spans as Chrome trace-event JSON (chrome://tracing,
/// ui.perfetto.dev) to `bench_e2e_<workload>.trace.json` in the working
/// directory: the first 20000 spans of each recorder, which keeps the file
/// to a few megabytes.
void write_trace(const std::string& workload,
                 const std::vector<const SpanRecorder*>& recorders,
                 Report& report);

/// (median traced − median untraced) ÷ median untraced of the primary
/// per-unit metric, reported as bench.trace_overhead_frac.
void report_trace_overhead(const std::vector<double>& traced,
                           const std::vector<double>& untraced,
                           Report& report);

/// Peak resident set of this process (getrusage), in MB.
double peak_rss_mb();

/// "cpu=... nproc=... simd=native|fallback build=..." for the host line.
std::string host_description();

}  // namespace vizcache::e2e
