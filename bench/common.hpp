#pragma once

#include <string>
#include <vector>

#include "core/workbench.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/metrics.hpp"
#include "util/step_timeline.hpp"
#include "util/table_printer.hpp"

namespace vizcache::bench {

/// Shared bench-binary environment. Every binary accepts `key=value`
/// overrides:
///   scale=0.1        dataset resolution relative to Table I
///   positions=400    camera-path length (the paper uses 400)
///   seed=42          random-path seed
///   quick=1          ~4x cheaper sweep for smoke runs
///   csv=path.csv     output CSV location (default: bench_<name>.csv)
struct BenchEnv {
  Config cfg;
  std::string name;
  double scale = 0.1;
  usize positions = 400;
  u64 seed = 42;
  bool quick = false;

  static BenchEnv parse(const std::string& name, int argc, const char* const* argv);

  std::string csv_path() const;

  /// Print the run banner (binary, parameters, seed) so every reported row
  /// is reproducible.
  void banner(const std::string& what) const;
};

/// Write a run's observability artifacts: `<stem>.trace.json` (Chrome
/// trace-event JSON, load via chrome://tracing or ui.perfetto.dev) and
/// `<stem>.metrics.json` (MetricsSnapshot::write_json). Prints where they
/// landed.
void write_observability(const std::string& stem, const StepTimeline& timeline,
                         const MetricsSnapshot& snapshot);

/// Random-path helper matching the paper's "random path with view-direction
/// changes between lo-hi degrees".
CameraPath random_path(double lo_deg, double hi_deg, usize positions, u64 seed);

/// Spherical-path helper for "spherical path with X-degree intervals".
CameraPath spherical_path(double step_deg, usize positions);

/// Formats "lo-hi" (e.g. "10-15") degree-range labels.
std::string degree_range_label(double lo, double hi);

}  // namespace vizcache::bench
