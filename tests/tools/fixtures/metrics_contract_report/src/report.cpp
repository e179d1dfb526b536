#include <string>

namespace fix {

// A stats struct reported into a snapshot: the composed name covers every
// asserted `*.hits` counter, the full literal is registered but unasserted.
void report_metrics(const Stats& stats, const std::string& prefix,
                    Snapshot& out) {
  out.add_counter(prefix + ".hits", stats.hits);
  out.add_counter("fixture.total", stats.total);
}

}  // namespace fix
