#pragma once

#include <vector>

#include "harness.hpp"

namespace vizcache::e2e {

/// Fig. 13 replay: seeded random paths, each a cold
/// Workbench::run_app_aware. `jumpy` turns 25-30 degrees per step instead
/// of 5-10, so predictions mostly miss.
void run_replay(const Options& opt, bool jumpy, Report& report);

/// Two closed-loop viewers against one shared BlockService, called in
/// process (`wire` false) or over loopback through NetServer (`wire` true).
void run_serving(const Options& opt, bool wire, Report& report);

/// raycast_packet frames along a seeded orbit of a fully resident volume.
void run_render(const Options& opt, Report& report);

/// Probe phase of a trace run: times each layer's public calls, one thread,
/// on the workload's own cameras (`paths`) against `world`, and reports the
/// per-layer timing metrics. Returns service.step_us_p50_serial, which the
/// serving workloads divide their loop latency by.
double run_probes(const Options& opt, const Workbench& world,
                  const std::vector<CameraPath>& paths, Report& report);

}  // namespace vizcache::e2e
