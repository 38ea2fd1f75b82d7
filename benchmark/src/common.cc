#include "common.h"

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness.h"
#include "util/logging.h"

namespace watchman::e2e {

double Median(std::vector<double> values) {
  return bench::Percentile(values, 0.5);
}

double MedianNsPerOp(int batches, size_t ops,
                     const std::function<void(size_t)>& op) {
  std::vector<double> per_op;
  per_op.reserve(static_cast<size_t>(batches));
  size_t i = 0;
  for (size_t w = 0; w < ops; ++w) op(i++);  // warm-up batch, untimed
  bench::ClobberMemory();
  for (int b = 0; b < batches; ++b) {
    const int64_t start = NowNs();
    for (size_t k = 0; k < ops; ++k) op(i++);
    bench::ClobberMemory();
    per_op.push_back(static_cast<double>(NowNs() - start) /
                     static_cast<double>(ops));
  }
  return Median(std::move(per_op));
}

void Results::Add(std::string name, std::string unit, double value,
                  uint64_t samples) {
  metrics.push_back({std::move(name), std::move(unit),
                     std::isfinite(value) ? value : 0.0, samples});
}

void Results::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

ProcStats ReadProcStats(pid_t pid) {
  ProcStats out;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  if (std::getline(stat, line)) {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12th and 13th after ")".
    const size_t close = line.rfind(')');
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 1; i <= 13 && rest >> field; ++i) {
      if (i >= 12) ticks += std::stod(field);
    }
    out.cpu_seconds = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  std::ifstream status(base + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out.peak_rss_mib = std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return out;
}

double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (double& t : ticks) stat >> t;
  return cpu == "cpu" ? ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK))
                      : 0.0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  AppendJsonEscaped(text, &out);
  return out + "\"";
}

void RunOnThreads(int n, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  for (int i = 1; i < n; ++i) threads.emplace_back(body, i);
  body(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace watchman::e2e
