// Shared plumbing of the end-to-end benchmark: host clocks, spans around
// calls into the dbmr layers, medians, and the per-run outcome every
// workload hands back to main().
//
// Everything here runs on the caller's thread; the benchmark never starts a
// thread of its own, so the figures measure the program, not the scheduler.

#ifndef DBMR_E2EBENCH_BENCH_H_
#define DBMR_E2EBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace e2e {

/// Host monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accumulated host time and call count of one kind of span.
struct SpanStat {
  int64_t ns = 0;
  uint64_t calls = 0;

  void Add(int64_t d) {
    ns += d;
    ++calls;
  }
  double MeanNs() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// Runs `f` inside a span billed to `stat` and returns what `f` returns.
template <class F>
auto Timed(SpanStat* stat, F&& f) {
  const int64_t t0 = NowNs();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    stat->Add(NowNs() - t0);
  } else {
    auto r = f();
    stat->Add(NowNs() - t0);
    return r;
  }
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// The benchmark's command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Wall-clock budget of the measured phase.  Workloads always finish the
/// round they are in, so every run is made of whole rounds.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_ns_(NowNs() + static_cast<int64_t>(seconds * 1e9)) {}
  bool Passed() const { return NowNs() >= end_ns_; }

 private:
  int64_t end_ns_;
};

/// What one invocation found: operation accounting, output checks, and the
/// metrics to print (end-to-end or per-layer, by --trace).
class Outcome {
 public:
  /// Records one output check; a false `ok` fails the run's verdict.
  void Check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok && failures_.size() < 20) failures_.push_back(what);
    if (!ok) correct_ = false;
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Human-readable line printed ahead of the result (counts, digests).
  void Note(const std::string& line) { notes_.push_back(line); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  struct MetricValue {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct() const { return correct_; }
  uint64_t checks() const { return checks_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<MetricValue>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  bool correct_ = true;
  uint64_t checks_ = 0;
  std::vector<std::string> failures_;
  std::vector<MetricValue> metrics_;
  std::vector<std::string> notes_;
};

/// The four workloads (see README.md for their make-up).
Outcome RunMachineWorkload(const RunOptions& opts);  // machine_scale/_hotspot
Outcome RunStoreCycle(const RunOptions& opts);
Outcome RunCrashSweep(const RunOptions& opts);

}  // namespace e2e

#endif  // DBMR_E2EBENCH_BENCH_H_
