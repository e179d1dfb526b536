#include "util/step_timeline.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "util/error.hpp"

namespace vizcache {

const char* step_event_kind_name(StepEvent::Kind kind) {
  switch (kind) {
    case StepEvent::Kind::kFetch: return "fetch";
    case StepEvent::Kind::kLookup: return "lookup";
    case StepEvent::Kind::kPrefetch: return "prefetch";
    case StepEvent::Kind::kRender: return "render";
  }
  return "?";
}

void StepTimeline::record(const StepEvent& event) {
  VIZ_REQUIRE(event.end >= event.start, "step event ends before it starts");
  events_.push_back(event);
}

std::vector<StepEvent> StepTimeline::events_of(StepEvent::Kind kind) const {
  std::vector<StepEvent> out;
  for (const StepEvent& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

SimSeconds StepTimeline::span_end() const {
  SimSeconds end = 0.0;
  for (const StepEvent& e : events_) end = std::max(end, e.end);
  return end;
}

SimSeconds StepTimeline::overlap_seconds(StepEvent::Kind a,
                                         StepEvent::Kind b) const {
  // Summed pairwise intersection. Spans of one kind never overlap each
  // other (steps are serial on the simulated clock), so no double counting.
  SimSeconds total = 0.0;
  for (const StepEvent& ea : events_) {
    if (ea.kind != a) continue;
    for (const StepEvent& eb : events_) {
      if (eb.kind != b || eb.worker != ea.worker) continue;
      const SimSeconds lo = std::max(ea.start, eb.start);
      const SimSeconds hi = std::min(ea.end, eb.end);
      if (hi > lo) total += hi - lo;
    }
  }
  return total;
}

namespace {

/// Trace lane of an event: fetch/render share the worker's demand lane,
/// lookup/prefetch go to the worker's overlap lane so chrome://tracing draws
/// concurrent spans side by side instead of nesting them.
u32 lane_of(const StepEvent& e) {
  const bool overlap_lane = e.kind == StepEvent::Kind::kLookup ||
                            e.kind == StepEvent::Kind::kPrefetch;
  return e.worker * 2 + (overlap_lane ? 1 : 0);
}

std::string micros(SimSeconds seconds) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << seconds * 1e6;
  return os.str();
}

}  // namespace

std::string StepTimeline::chrome_trace_json() const {
  std::ostringstream os;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  auto emit = [&](const std::string& line) {
    os << (first ? "\n" : ",\n") << "    " << line;
    first = false;
  };

  emit("{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
       "\"args\": {\"name\": \"vizcache simulated pipeline\"}}");
  std::map<u32, std::string> lanes;  // ordered: deterministic output
  for (const StepEvent& e : events_) {
    // Appended, not `"w" + std::to_string(...)`: GCC 12's -O3 -Wrestrict
    // misreports that operator+.
    std::string label = "w";
    label += std::to_string(e.worker);
    label += lane_of(e) % 2 == 0 ? " fetch+render" : " lookup+prefetch";
    lanes.emplace(lane_of(e), std::move(label));
  }
  for (const auto& [tid, label] : lanes) {
    emit("{\"ph\": \"M\", \"pid\": 0, \"tid\": " + std::to_string(tid) +
         ", \"name\": \"thread_name\", \"args\": {\"name\": \"" + label +
         "\"}}");
  }
  for (const StepEvent& e : events_) {
    std::ostringstream ev;
    ev << "{\"ph\": \"X\", \"pid\": 0, \"tid\": " << lane_of(e)
       << ", \"name\": \"" << step_event_kind_name(e.kind)
       << "\", \"cat\": \"sim\", \"ts\": " << micros(e.start)
       << ", \"dur\": " << micros(e.end - e.start)
       << ", \"args\": {\"step\": " << e.step << ", \"blocks\": " << e.blocks
       << "}}";
    emit(ev.str());
  }
  os << "\n  ]\n}";
  return os.str();
}

void StepTimeline::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("cannot open trace output for writing: " + path);
  out << chrome_trace_json() << "\n";
  if (!out) throw IoError("trace write failed: " + path);
}

}  // namespace vizcache
