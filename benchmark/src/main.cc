// watchman_bench: one run of one benchmark workload.
//
//   watchman_bench --workload=<name> --daemon=<watchmand> --workdir=<dir>
//                  [--seed=9601] [--seconds=30] [--trace=0|1]
//                  [--report=<file>]
//   watchman_bench --smoke --daemon=<watchmand> --workdir=<dir>
//
// Workloads: tpcd_remote, setquery_hot, tpcd_refresh (see
// benchmark/README.md). With --trace=0 the run reports the
// end-to-end metrics; with --trace=1 it runs the workload with spans
// (Chrome trace written to <workdir>/trace-<workload>.json) and then
// the per-layer ladder, and reports the per-layer metrics. The last
// line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --report also writes it with sample counts and run facts. The exit
// code is 0 only when every answer and check was correct. --smoke runs
// every workload for about a second, checks on.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common.h"
#include "ladder.h"
#include "workloads.h"

namespace watchman::e2e {
namespace {

const char* const kWorkloads[] = {"tpcd_remote", "setquery_hot",
                                  "tpcd_refresh"};

struct Args {
  std::string workload;
  RunConfig config;
  std::string report;
  bool smoke = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: watchman_bench --workload=<name> --daemon=<path> "
               "--workdir=<dir> [--seed=N] [--seconds=S] [--trace=0|1] "
               "[--report=<file>]\n"
               "       watchman_bench --smoke --daemon=<path> "
               "--workdir=<dir>\n");
  return 2;
}

/// Accepts "--name=value" and "--name value".
bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      args->smoke = true;
      continue;
    }
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      args->config.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      args->config.traced = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (arg == "--daemon") {
      args->config.daemon_binary = value;
    } else if (arg == "--workdir") {
      args->config.workdir = value;
    } else if (arg == "--report") {
      args->report = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return !args->config.daemon_binary.empty() && !args->config.workdir.empty() &&
         args->config.seconds > 0;
}

bool KnownWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

/// Runs `workload`; with tracing, the ladder follows and the per-layer
/// metrics replace the end-to-end ones.
Results RunOne(const std::string& workload, const RunConfig& config) {
  Results results;
  Observation observed;
  if (workload == "tpcd_remote") {
    RunTpcdRemote(config, &results, &observed);
  } else if (workload == "setquery_hot") {
    RunSetQueryHot(config, &results, &observed);
  } else {
    RunTpcdRefresh(config, &results, &observed);
  }
  if (!config.traced) return results;
  Results layers;
  layers.attempted = results.attempted;
  layers.failed = results.failed;
  layers.check_failures = results.check_failures;
  layers.info = results.info;
  RunLadder(config, workload, observed, &layers);
  return layers;
}

std::string ResultJson(const Results& results, bool with_samples) {
  std::string out = "{\"correct\": ";
  out += results.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(results.attempted);
  out += ", \"failed\": " + std::to_string(results.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < results.metrics.size(); ++i) {
    const Metric& m = results.metrics[i];
    out += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  out += "}";
  if (with_samples) {
    out += ", \"info\": {";
    for (size_t i = 0; i < results.info.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(results.info[i].first) + ": " +
             JsonString(results.info[i].second);
    }
    out += "}, \"check_failures\": [";
    for (size_t i = 0; i < results.check_failures.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(results.check_failures[i]);
    }
    out += "]";
  }
  return out + "}";
}

void PrintTable(const std::string& workload, const Results& results) {
  std::fprintf(stderr, "%s: %s, %llu attempted, %llu failed\n",
               workload.c_str(), results.correct() ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(results.attempted),
               static_cast<unsigned long long>(results.failed));
  for (const Metric& m : results.metrics) {
    std::fprintf(stderr, "  %-36s %16.6g %-10s", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (m.samples != 0) {
      std::fprintf(stderr, " (n=%llu)",
                   static_cast<unsigned long long>(m.samples));
    }
    std::fprintf(stderr, "\n");
  }
  for (const auto& [key, value] : results.info) {
    std::fprintf(stderr, "  %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& failure : results.check_failures) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", failure.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  ::mkdir(args.config.workdir.c_str(), 0755);
  if (args.smoke) {
    bool all_correct = true;
    for (const char* workload : kWorkloads) {
      RunConfig config = args.config;
      config.seconds = 1.0;
      config.repeat_setup = false;
      const Results results = RunOne(workload, config);
      PrintTable(workload, results);
      all_correct = all_correct && results.correct();
    }
    return all_correct ? 0 : 1;
  }
  if (!KnownWorkload(args.workload)) return Usage();
  if (args.config.traced) {
    args.config.chrome_trace =
        args.config.workdir + "/trace-" + args.workload + ".json";
  }
  const Results results = RunOne(args.workload, args.config);
  PrintTable(args.workload, results);
  if (!args.report.empty()) {
    std::ofstream report(args.report);
    report << ResultJson(results, true) << "\n";
  }
  std::printf("%s\n", ResultJson(results, false).c_str());
  std::fflush(stdout);
  return results.correct() ? 0 : 1;
}

}  // namespace
}  // namespace watchman::e2e

int main(int argc, char** argv) { return watchman::e2e::Main(argc, argv); }
