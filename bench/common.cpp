#include "common.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "util/log.hpp"

namespace vizcache::bench {

BenchEnv BenchEnv::parse(const std::string& name, int argc,
                         const char* const* argv) {
  BenchEnv env;
  env.name = name;
  env.cfg = Config::from_args(argc, argv);
  env.scale = env.cfg.get_double("scale", env.scale);
  env.positions = static_cast<usize>(
      env.cfg.get_int("positions", static_cast<i64>(env.positions)));
  env.seed = static_cast<u64>(env.cfg.get_int("seed", 42));
  env.quick = env.cfg.get_bool("quick", false);
  if (env.quick) {
    env.positions = std::min<usize>(env.positions, 100);
  }
  Log::set_level(LogLevel::kWarn);
  return env;
}

std::string BenchEnv::csv_path() const {
  return cfg.get_string("csv", "bench_" + name + ".csv");
}

void BenchEnv::banner(const std::string& what) const {
  std::cout << "# vizcache bench: " << name << "\n"
            << "# " << what << "\n"
            << "# scale=" << scale << " positions=" << positions
            << " seed=" << seed << (quick ? " quick=1" : "") << "\n"
            << "# csv -> " << csv_path() << "\n";
}

void write_observability(const std::string& stem, const StepTimeline& timeline,
                         const MetricsSnapshot& snapshot) {
  const std::string trace_path = stem + ".trace.json";
  const std::string metrics_path = stem + ".metrics.json";
  timeline.write_chrome_trace(trace_path);
  snapshot.write_json(metrics_path);
  std::cout << "# trace -> " << trace_path << "\n"
            << "# metrics -> " << metrics_path << "\n";
}

CameraPath random_path(double lo_deg, double hi_deg, usize positions,
                       u64 seed) {
  RandomPathSpec spec;
  spec.step_min_deg = lo_deg;
  spec.step_max_deg = hi_deg;
  spec.positions = positions;
  spec.seed = seed;
  return make_random_path(spec);
}

CameraPath spherical_path(double step_deg, usize positions) {
  SphericalPathSpec spec;
  spec.step_deg = step_deg;
  spec.positions = positions;
  return make_spherical_path(spec);
}

std::string degree_range_label(double lo, double hi) {
  std::ostringstream os;
  os << lo << "-" << hi;
  return os.str();
}

}  // namespace vizcache::bench
