// End-to-end benchmark of dbmr: one workload per invocation, on one thread,
// with its load generated in-process from --seed.
//
//   e2ebench --workload=NAME --seed=N --seconds=S --trace=0|1
//
// --trace=0 prints the end-to-end metrics; --trace=1 is the separate traced
// run that prints the per-layer metrics the workload measures (run.py
// checks both against BENCHMARK.json and fills in the layers a workload
// bypasses).  Human-readable lines come first; the last line of stdout is
// one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 when every output check passed, 1 when one failed and
// 2 on a usage error.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "util/json.h"

namespace e2e {

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries the high-water mark of
  // the image a process exec'd from into ru_maxrss, so a small benchmark
  // launched from a larger parent would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

namespace {

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "workloads: machine_scale machine_hotspot store_cycle "
               "crash_sweep\n",
               error.c_str());
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const std::string& text) {
  if (text.empty() || text[0] == '-') Usage("bad value for " + flag);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    Usage("bad value for " + flag + ": " + text);
  }
  return v;
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + arg);
    }
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = ParseUint(arg, value);
    } else if (arg == "--seconds") {
      const uint64_t s = ParseUint(arg, value);
      if (s < 1 || s > 3600) Usage("--seconds must be in [1, 3600]");
      o.seconds = static_cast<double>(s);
    } else if (arg == "--trace") {
      const uint64_t t = ParseUint(arg, value);
      if (t > 1) Usage("--trace must be 0 or 1");
      o.trace = t == 1;
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return o;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const RunOptions opts = ParseArgs(argc, argv);
  Outcome out;
  if (opts.workload == "machine_scale" || opts.workload == "machine_hotspot") {
    out = RunMachineWorkload(opts);
  } else if (opts.workload == "store_cycle") {
    out = RunStoreCycle(opts);
  } else if (opts.workload == "crash_sweep") {
    out = RunCrashSweep(opts);
  } else {
    Usage("unknown workload " + opts.workload);
  }

  std::printf("workload  : %s (seed %llu, %s run)\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced");
  for (const std::string& line : out.notes()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::printf("checks    : %llu run, %s\n",
              static_cast<unsigned long long>(out.checks()),
              out.correct() ? "all passed" : "FAILED");
  for (const std::string& f : out.failures()) {
    std::printf("  check failed: %s\n", f.c_str());
  }
  dbmr::JsonValue metrics = dbmr::JsonValue::Object();
  for (const Outcome::MetricValue& m : out.metrics()) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    dbmr::JsonValue v = dbmr::JsonValue::Object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[m.name] = std::move(v);
  }
  dbmr::JsonValue result = dbmr::JsonValue::Object();
  result["correct"] = out.correct();
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.Dump().c_str());
  return out.correct() ? 0 : 1;
}
