// watchmand: the WATCHMAN cache daemon.
//
// Runs a Watchman facade behind the TCP server so many warehouse
// front-ends share one retrieved-set cache. The daemon owns no
// warehouse: clients attach the result they computed to EXECUTE
// requests on a miss (see server/protocol.h), and the daemon runs the
// configured policy's admission/replacement over them.
//
// Usage:
//   watchmand [--policy=lnc-ra(k=4)] [--capacity=256m] [--shards=8]
//             [--port=9736] [--host=127.0.0.1] [--workers=N]
//             [--backend=epoll|io_uring|auto] [--no-inline]
//             [--compact-idle=SECONDS] [--io-timeout=MS] [--normalize]
//             [--admin-port=P] [--no-metrics] [--slow-request-ms=MS]
//             [--log-level=debug|info|warn|error|off] [--log-json]
//             [--stats-interval=30] [--verbose]
//
// --capacity accepts plain bytes or k/m/g suffixes. --policy accepts
// everything ParsePolicy does. --backend picks the event backend:
// `epoll` (the default) never probes; `auto` serves with io_uring when
// the kernel provides it and falls back to epoll silently; `io_uring`
// also falls back but logs a warning. epoll is the default because it
// measured cheaper: on a 4-vCPU Linux 6.18 VM the IO thread spent
// 14.4 us of CPU per request under epoll against 16.1 us under
// io_uring on the benchmark's tpcd_remote workload, io_uring's ring
// added 2 MiB of RSS, and a window of 32 pipelined GETs ran at 177K/s
// on epoll against 104K/s on io_uring. --no-inline disables the
// IO-thread inline fast path for cheap ops and miss-fill EXECUTEs.
// --compact-idle runs a metadata compaction pass after the daemon has
// been idle that many seconds (0 = never). --io-timeout closes
// connections stuck mid-frame / mid-flush with no progress for MS
// milliseconds (0 = never).
//
// Observability: --admin-port binds an HTTP endpoint (same host)
// serving GET /metrics (Prometheus text format) and /healthz; 0 picks
// an ephemeral port, omit the flag to disable. --no-metrics drops the
// latency/stage histograms (counters stay). --slow-request-ms logs one
// structured WARN line per request slower than MS milliseconds.
// --log-level caps log verbosity (--verbose = --log-level=debug);
// --log-json switches stderr logging to single-line JSON.
// SIGINT/SIGTERM shut down gracefully and print a final stats report.
//
// Overload protection (all off by default): --peer-rps caps each peer
// address's sustained request rate (--peer-burst sets the bucket
// burst), --max-conns-per-peer caps simultaneous connections per peer,
// --max-inflight caps globally admitted-but-unanswered frames, and
// --max-output-bytes caps response bytes buffered across all
// connections. Over-budget requests answer kShedRetryLater with a
// retry-after hint instead of queuing. --breaker-threshold /
// --breaker-cooldown-ms tune the payload-store circuit breaker
// (threshold 0 disables it).
//
// Fault injection (tests/chaos only): --faults=SPEC -- or the
// WATCHMAN_FAULTS environment variable; the flag wins -- installs a
// deterministic fault schedule ("seed=42,recv_short=0.1,stall_ms=5",
// see util/fault.h). Zero cost when not set.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "server/server.h"
#include "sim/policy_config.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct Flags {
  std::string policy = "lnc-ra(k=4)";
  std::string capacity = "256m";
  std::string host = "127.0.0.1";
  size_t shards = 8;
  uint16_t port = 9736;
  size_t workers = 0;  // 0 = hardware concurrency
  ServerBackend backend = ServerBackend::kEpoll;
  bool inline_dispatch = true;
  uint64_t compact_idle_s = 300;
  uint64_t io_timeout_ms = 30000;
  uint64_t stats_interval_s = 0;
  bool normalize = false;
  bool verbose = false;
  /// -1 = no admin endpoint; 0 = ephemeral port.
  int admin_port = -1;
  bool metrics = true;
  uint64_t slow_request_ms = 0;
  std::string log_level;  // empty = derived from --verbose
  bool log_json = false;
  // Overload protection (0 = unlimited).
  uint64_t peer_rps = 0;
  uint64_t peer_burst = 0;
  uint64_t max_conns_per_peer = 0;
  uint64_t max_inflight = 0;
  std::string max_output_bytes;  // byte-size syntax; empty = unlimited
  // Payload-store circuit breaker (threshold 0 disables).
  uint64_t breaker_threshold = 5;
  uint64_t breaker_cooldown_ms = 2000;
  /// Deterministic fault schedule; empty = WATCHMAN_FAULTS env or off.
  std::string faults;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--policy=<name>] [--capacity=<bytes|k|m|g>] "
      "[--shards=<n>] [--port=<p>] [--host=<addr>] [--workers=<n>]\n"
      "       [--backend=epoll|io_uring|auto] [--no-inline] "
      "[--compact-idle=<seconds>]\n"
      "       [--io-timeout=<ms>] [--normalize] "
      "[--stats-interval=<seconds>] [--verbose]\n"
      "       [--admin-port=<p>] [--no-metrics] [--slow-request-ms=<ms>]\n"
      "       [--log-level=debug|info|warn|error|off] [--log-json]\n"
      "       [--peer-rps=<n>] [--peer-burst=<n>] "
      "[--max-conns-per-peer=<n>]\n"
      "       [--max-inflight=<n>] [--max-output-bytes=<bytes|k|m|g>]\n"
      "       [--breaker-threshold=<n>] [--breaker-cooldown-ms=<ms>]\n"
      "       [--faults=<spec>]\n",
      argv0);
  return 2;
}

void PrintStats(const WireStats& stats) {
  std::printf("---- watchmand stats ----\n");
  std::printf("policy %s, %llu shards, %s / %s used, %llu cached sets\n",
              stats.policy_name.c_str(),
              static_cast<unsigned long long>(stats.num_shards),
              HumanBytes(stats.used_bytes).c_str(),
              HumanBytes(stats.capacity_bytes).c_str(),
              static_cast<unsigned long long>(stats.entry_count));
  std::printf(
      "lookups %llu, hits %llu (HR %.3f), CSR %.3f, insertions %llu, "
      "evictions %llu, invalidations %llu\n",
      static_cast<unsigned long long>(stats.lookups),
      static_cast<unsigned long long>(stats.hits), stats.hit_ratio(),
      stats.cost_savings_ratio(),
      static_cast<unsigned long long>(stats.insertions),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.invalidations));
  std::printf(
      "connections %llu accepted / %llu active, ready-queue %llu "
      "(peak %llu), requests %llu, rejected frames %llu\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.connections_active),
      static_cast<unsigned long long>(stats.connections_queued),
      static_cast<unsigned long long>(stats.connections_queued_peak),
      static_cast<unsigned long long>(stats.requests_served),
      static_cast<unsigned long long>(stats.frames_rejected));
  if (stats.last_compaction_age_ms == WireStats::kNeverCompacted) {
    std::printf("backend %s, %llu compactions (none yet)\n",
                stats.backend.c_str(),
                static_cast<unsigned long long>(stats.compactions));
  } else {
    std::printf("backend %s, %llu compactions (last %.1fs ago)\n",
                stats.backend.c_str(),
                static_cast<unsigned long long>(stats.compactions),
                static_cast<double>(stats.last_compaction_age_ms) / 1000.0);
  }
  for (const WireOpMetrics& op : stats.per_op) {
    std::printf(
        "  %-20s %10llu reqs %6llu errs   latency us mean %8.1f  min %8.1f"
        "  max %8.1f\n",
        OpCodeName(static_cast<OpCode>(op.op)),
        static_cast<unsigned long long>(op.requests),
        static_cast<unsigned long long>(op.errors), op.latency_mean_us,
        op.latency_min_us, op.latency_max_us);
  }
  std::fflush(stdout);
}

int Run(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "policy", &value)) {
      flags.policy = value;
    } else if (ParseFlag(arg, "capacity", &value)) {
      flags.capacity = value;
    } else if (ParseFlag(arg, "host", &value)) {
      flags.host = value;
    } else if (ParseFlag(arg, "shards", &value)) {
      uint64_t shards = 0;
      if (!ParseUint(value, 1024, &shards) || shards == 0) {
        std::fprintf(stderr, "--shards: expected 1..1024, got '%s'\n",
                     value.c_str());
        return 2;
      }
      flags.shards = static_cast<size_t>(shards);
    } else if (ParseFlag(arg, "port", &value)) {
      uint64_t port = 0;
      if (!ParseUint(value, 65535, &port)) {
        std::fprintf(stderr, "--port: expected 0..65535, got '%s'\n",
                     value.c_str());
        return 2;
      }
      flags.port = static_cast<uint16_t>(port);
    } else if (ParseFlag(arg, "workers", &value)) {
      uint64_t workers = 0;
      if (!ParseUint(value, 4096, &workers)) {
        std::fprintf(stderr, "--workers: expected 0..4096, got '%s'\n",
                     value.c_str());
        return 2;
      }
      flags.workers = static_cast<size_t>(workers);
    } else if (ParseFlag(arg, "backend", &value)) {
      if (!ParseServerBackend(value, &flags.backend)) {
        std::fprintf(stderr,
                     "--backend: expected epoll|io_uring|auto, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "compact-idle", &value)) {
      if (!ParseUint(value, 86400, &flags.compact_idle_s)) {
        std::fprintf(stderr,
                     "--compact-idle: expected seconds 0..86400, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--no-inline") {
      flags.inline_dispatch = false;
    } else if (ParseFlag(arg, "io-timeout", &value)) {
      if (!ParseUint(value, 86400000, &flags.io_timeout_ms)) {
        std::fprintf(stderr,
                     "--io-timeout: expected ms 0..86400000, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "stats-interval", &value)) {
      if (!ParseUint(value, 86400, &flags.stats_interval_s)) {
        std::fprintf(stderr,
                     "--stats-interval: expected seconds 0..86400, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--normalize") {
      flags.normalize = true;
    } else if (arg == "--verbose") {
      flags.verbose = true;
    } else if (ParseFlag(arg, "admin-port", &value)) {
      uint64_t port = 0;
      if (!ParseUint(value, 65535, &port)) {
        std::fprintf(stderr, "--admin-port: expected 0..65535, got '%s'\n",
                     value.c_str());
        return 2;
      }
      flags.admin_port = static_cast<int>(port);
    } else if (arg == "--no-metrics") {
      flags.metrics = false;
    } else if (ParseFlag(arg, "slow-request-ms", &value)) {
      if (!ParseUint(value, 86400000, &flags.slow_request_ms)) {
        std::fprintf(stderr,
                     "--slow-request-ms: expected ms 0..86400000, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "peer-rps", &value)) {
      if (!ParseUint(value, 10000000, &flags.peer_rps)) {
        std::fprintf(stderr, "--peer-rps: expected 0..10000000, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "peer-burst", &value)) {
      if (!ParseUint(value, 10000000, &flags.peer_burst)) {
        std::fprintf(stderr, "--peer-burst: expected 0..10000000, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "max-conns-per-peer", &value)) {
      if (!ParseUint(value, 1000000, &flags.max_conns_per_peer)) {
        std::fprintf(stderr,
                     "--max-conns-per-peer: expected 0..1000000, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "max-inflight", &value)) {
      if (!ParseUint(value, 100000000, &flags.max_inflight)) {
        std::fprintf(stderr,
                     "--max-inflight: expected 0..100000000, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "max-output-bytes", &value)) {
      flags.max_output_bytes = value;
    } else if (ParseFlag(arg, "breaker-threshold", &value)) {
      if (!ParseUint(value, 1000000, &flags.breaker_threshold)) {
        std::fprintf(stderr,
                     "--breaker-threshold: expected 0..1000000, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "breaker-cooldown-ms", &value)) {
      if (!ParseUint(value, 86400000, &flags.breaker_cooldown_ms)) {
        std::fprintf(stderr,
                     "--breaker-cooldown-ms: expected ms 0..86400000, got "
                     "'%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "faults", &value)) {
      flags.faults = value;
    } else if (ParseFlag(arg, "log-level", &value)) {
      LogLevel parsed;
      if (!ParseLogLevel(value, &parsed)) {
        std::fprintf(
            stderr,
            "--log-level: expected debug|info|warn|error|off, got '%s'\n",
            value.c_str());
        return 2;
      }
      flags.log_level = value;
    } else if (arg == "--log-json") {
      flags.log_json = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (!flags.log_level.empty()) {
    LogLevel level = LogLevel::kInfo;
    ParseLogLevel(flags.log_level, &level);  // validated during parsing
    SetLogLevel(level);
  } else {
    SetLogLevel(flags.verbose ? LogLevel::kDebug : LogLevel::kInfo);
  }
  SetLogFormat(flags.log_json ? LogFormat::kJson : LogFormat::kText);

  StatusOr<PolicyConfig> policy = ParsePolicy(flags.policy);
  if (!policy.ok()) {
    std::fprintf(stderr, "--policy: %s\n", policy.status().ToString().c_str());
    return 2;
  }
  StatusOr<uint64_t> capacity = ParseByteSize(flags.capacity);
  if (!capacity.ok()) {
    std::fprintf(stderr, "--capacity: %s\n",
                 capacity.status().ToString().c_str());
    return 2;
  }
  // Fault injection: the --faults flag wins over WATCHMAN_FAULTS.
  std::string fault_spec = flags.faults;
  if (fault_spec.empty()) {
    const char* env = std::getenv("WATCHMAN_FAULTS");
    if (env != nullptr) fault_spec = env;
  }
  if (!fault_spec.empty()) {
    const Status configured = FaultInjector::Global().Configure(fault_spec);
    if (!configured.ok()) {
      std::fprintf(stderr, "--faults: %s\n",
                   configured.ToString().c_str());
      return 2;
    }
    WATCHMAN_LOG(Warning) << "fault injection enabled: " << fault_spec;
  }

  Watchman::Options options;
  options.capacity_bytes = *capacity;
  options.policy = *policy;
  options.num_shards = flags.shards;
  options.normalize_queries = flags.normalize;
  options.store_breaker.failure_threshold =
      static_cast<int>(flags.breaker_threshold);
  options.store_breaker.cooldown_ms =
      static_cast<int64_t>(flags.breaker_cooldown_ms);
  Watchman cache(std::move(options), WatchmanServer::MissFillExecutor());

  WatchmanServer::Options server_options;
  server_options.bind_address = flags.host;
  server_options.port = flags.port;
  server_options.num_workers =
      flags.workers != 0 ? flags.workers
                         : std::max(4u, std::thread::hardware_concurrency());
  server_options.io_timeout_ms = static_cast<int>(flags.io_timeout_ms);
  server_options.backend = flags.backend;
  server_options.inline_dispatch = flags.inline_dispatch;
  server_options.compact_idle_ms =
      static_cast<int>(flags.compact_idle_s) * 1000;
  server_options.admin_port = flags.admin_port;
  server_options.metrics = flags.metrics;
  server_options.slow_request_us =
      static_cast<int64_t>(flags.slow_request_ms) * 1000;
  server_options.admission.peer_requests_per_sec =
      static_cast<double>(flags.peer_rps);
  server_options.admission.peer_burst =
      static_cast<double>(flags.peer_burst);
  server_options.admission.max_connections_per_peer =
      static_cast<uint32_t>(flags.max_conns_per_peer);
  server_options.admission.max_global_inflight = flags.max_inflight;
  if (!flags.max_output_bytes.empty()) {
    StatusOr<uint64_t> budget = ParseByteSize(flags.max_output_bytes);
    if (!budget.ok()) {
      std::fprintf(stderr, "--max-output-bytes: %s\n",
                   budget.status().ToString().c_str());
      return 2;
    }
    server_options.admission.max_global_output_bytes = *budget;
  }
  WatchmanServer server(&cache, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("watchmand serving %s on %s:%u (%s capacity, %zu shards, "
              "%zu workers, %s backend)\n",
              cache.policy_name().c_str(), flags.host.c_str(),
              static_cast<unsigned>(server.port()),
              HumanBytes(*capacity).c_str(), cache.num_shards(),
              server_options.num_workers,
              ServerBackendName(server.effective_backend()));
  if (server.admin_port() != 0) {
    std::printf("admin endpoint: http://%s:%u/metrics\n", flags.host.c_str(),
                static_cast<unsigned>(server.admin_port()));
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  uint64_t ticks = 0;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ++ticks;
    if (flags.stats_interval_s != 0 &&
        ticks % (flags.stats_interval_s * 5) == 0) {
      PrintStats(server.StatsSnapshot());
    }
  }
  std::printf("\nshutting down...\n");
  const WireStats final_stats = server.StatsSnapshot();
  server.Stop();
  PrintStats(final_stats);
  return 0;
}

}  // namespace
}  // namespace watchman

int main(int argc, char** argv) { return watchman::Run(argc, argv); }
