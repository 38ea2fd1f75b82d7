// Shared helpers of the end-to-end benchmark: clocks, quantiles, the
// metric record every workload fills in, and process statistics.

#ifndef WATCHMAN_BENCHMARK_COMMON_H_
#define WATCHMAN_BENCHMARK_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace watchman::e2e {

/// Monotonic nanoseconds (steady_clock); every timestamp the benchmark
/// records, and every span, uses this clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Median of `values` (copied), as bench::Percentile interpolates it.
double Median(std::vector<double> values);

/// Median over `batches` timed batches of `ops` calls of `op(i)`, in
/// nanoseconds per call, after one untimed batch; `i` counts calls
/// across batches. bench::Measure's batch timing without its printout.
double MedianNsPerOp(int batches, size_t ops,
                     const std::function<void(size_t)>& op);

/// One reported number. `samples` is the count a timing was derived
/// from (0 for counts and ratios).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  uint64_t samples = 0;
};

/// Everything one benchmark run reports: metrics, operation counts and
/// the checks that failed.
struct Results {
  std::vector<Metric> metrics;
  /// Operations the generator issued and how many of them failed (error
  /// status, shed, timeout, wrong answer, stale read).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed correctness checks, human-readable.
  std::vector<std::string> check_failures;
  /// Free-form facts for the report file (effective backend, ...).
  std::vector<std::pair<std::string, std::string>> info;

  void Add(std::string name, std::string unit, double value,
           uint64_t samples = 0);
  void Check(bool ok, const std::string& what);
  bool correct() const { return failed == 0 && check_failures.empty(); }
};

/// CPU time and peak resident set of a process, from /proc.
struct ProcStats {
  double cpu_seconds = 0.0;  // utime + stime
  double peak_rss_mib = 0.0;  // VmHWM
};
ProcStats ReadProcStats(pid_t pid);

/// CPU time, summed over all CPUs, that the hypervisor gave to other
/// guests while this machine's CPUs had work ("steal" in /proc/stat).
double StealSeconds();

/// Formats a double with every digit needed to read it back.
std::string JsonNumber(double value);
/// Quotes a string for JSON (escaped by AppendJsonEscaped).
std::string JsonString(std::string_view text);

/// Runs `body(i)` for i in [0, n): body(0) on the calling thread, the
/// rest on new threads, and joins them all. The generator's thread
/// budget is explicit this way: n workers cost n - 1 extra threads.
void RunOnThreads(int n, const std::function<void(int)>& body);

}  // namespace watchman::e2e

#endif  // WATCHMAN_BENCHMARK_COMMON_H_
