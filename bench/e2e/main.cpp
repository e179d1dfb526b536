// bench_e2e: the vizcache end-to-end benchmark (README.md).
//
//   bench_e2e workload=<name>|all seed=<n> [seconds=8] [trace=0|1]
//             [size=full|smoke]
//
// Each workload builds its world, runs a fixed amount of seeded work,
// checks the outputs, and prints every metric by name with its unit, then
// one `RESULT {json}` line. workload=all runs each workload in a process
// of its own. Exit status: 0 when every check passed, 1 when one failed,
// 2 on a usage error or an unoptimised build.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/config.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace vizcache;
using namespace vizcache::e2e;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr std::array<const char*, 5> kWorkloads = {
    "replay_local", "replay_jumpy", "sessions", "wire", "render"};

int run_one(const Options& opt) {
  Report report(opt.workload);
  try {
    if (opt.workload == "replay_local" || opt.workload == "replay_jumpy") {
      run_replay(opt, opt.workload == "replay_jumpy", report);
    } else if (opt.workload == "sessions" || opt.workload == "wire") {
      run_serving(opt, opt.workload == "wire", report);
    } else {
      run_render(opt, report);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }
  report.print(opt);
  return report.correct() ? 0 : 1;
}

/// Run `workload` in a child process of this binary with the same options.
int spawn_one(const std::string& workload, const Options& opt) {
  std::vector<std::string> args = {
      "bench_e2e",
      "workload=" + workload,
      "seed=" + std::to_string(opt.seed),
      "seconds=" + std::to_string(opt.seconds),
      std::string("trace=") + (opt.trace ? "1" : "0"),
      std::string("size=") + (opt.smoke ? "smoke" : "full")};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::cout.flush();
  pid_t pid = 0;
  if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
    std::cerr << "bench_e2e: cannot start the " << workload << " workload\n";
    return 1;
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return 1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (!kOptimized) {
    std::cerr << "bench_e2e: refusing to time an unoptimised build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  Options opt;
  try {
    const Config cfg = Config::from_args(argc, argv);
    opt.workload = cfg.get_string("workload", "");
    opt.seed = static_cast<u64>(cfg.get_int("seed", 42));
    opt.seconds = cfg.get_double("seconds", 8.0);
    opt.trace = cfg.get_bool("trace", false);
    const std::string size = cfg.get_string("size", "full");
    opt.smoke = size == "smoke";
    bool known = opt.workload == "all";
    for (const char* w : kWorkloads) known = known || opt.workload == w;
    if (!known || !(opt.seconds > 0.0) || (size != "full" && size != "smoke")) {
      throw std::invalid_argument("bad arguments");
    }
  } catch (const std::exception&) {
    std::cerr << "usage: bench_e2e workload=<replay_local|replay_jumpy|"
                 "sessions|wire|render|all> seed=<n> [seconds=8] "
                 "[trace=0|1] [size=full|smoke]\n";
    return 2;
  }
  Log::set_level(LogLevel::kWarn);

  if (opt.workload != "all") {
    std::cout << "# host: " << host_description() << "\n"
              << "# workload=" << opt.workload << " seed=" << opt.seed
              << " seconds=" << opt.seconds << " trace=" << opt.trace
              << " size=" << (opt.smoke ? "smoke" : "full") << "\n";
    return run_one(opt);
  }
  int status = 0;
  for (const char* w : kWorkloads) {
    if (spawn_one(w, opt) != 0) status = 1;
  }
  return status;
}
