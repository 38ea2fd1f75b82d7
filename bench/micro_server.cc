// Localhost throughput bench for the watchmand server stack.
//
// Starts a Watchman + WatchmanServer in-process on a loopback ephemeral
// port, pre-fills a working set over the wire, then measures recorded
// scenarios on ONE connection. The legacy trio runs on the primary
// server (--backend, default epoll; inline dispatch OFF so the numbers
// stay comparable with the pre-inline trajectory):
//
//   loopback_get_blocking   -- MultiplexedClient::Get: one blocked round
//                              trip per request (the pre-v3 floor)
//   loopback_get_pipelined  -- MultiplexedClient: a 32-deep window of
//                              in-flight GETs on one connection; the
//                              writer batches frames, the awaiting
//                              thread demultiplexes by request id
//   loopback_get_mux8t      -- 8 threads sharing ONE MultiplexedClient
//                              connection, each doing blocking Gets
//
// and each fast-path lever then gets its own server + scenario:
//
//   loopback_get_blocking_inline -- epoll + IO-thread inline dispatch
//   loopback_get_blocking_uring  -- io_uring backend (skipped with a
//   loopback_get_pipelined_uring    notice when the kernel can't)
//
// plus an unrecorded thread sweep (1..max_threads blocking clients, a
// connection each) and a PING round for the transport floor. The
// recorded scenarios land in BENCH_micro.json format via --json; the
// acceptance bars are pipelined >= 3x blocking on the same connection
// and inline blocking RTT beating the queued path.
//
// Usage: bench_micro_server [--json=PATH] [--baseline=PATH]
//          [--baseline-label=STR] [--backend=epoll|io_uring|auto]
//          [--scale=F] [--threads=N] [--ms=N] [--no-sweep]

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/policy_config.h"
#include "util/random.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

using bench::BenchResult;
using bench::DoNotOptimize;
using bench::JsonReport;
using bench::MakeResult;
using bench::Measure;

constexpr size_t kWorkingSet = 2048;

std::string QueryText(size_t i) {
  return "select agg from rel where param = " + std::to_string(i);
}

/// Cheap index stream so the measured loop is the round trip.
struct FastRng {
  uint64_t state;
  explicit FastRng(uint64_t seed) : state(seed | 1) {}
  uint64_t Next() {
    uint64_t x = state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state = x;
    return x * 0x2545F4914F6CDD1DULL;
  }
};

/// One unrecorded sweep point: `num_threads` blocking clients (one
/// connection each) for ~`ms` wall milliseconds; returns requests/sec.
double RunSweepPoint(uint16_t port, int num_threads, int ms,
                     bool ping_only) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  std::atomic<uint64_t> failures{0};
  std::barrier start(num_threads + 1);
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      MultiplexedClient::Options options;
      options.port = port;
      auto client = MultiplexedClient::Connect(options);
      if (!client.ok()) {
        failures.fetch_add(1);
        start.arrive_and_wait();
        return;
      }
      FastRng rng(0xBEEF + t);
      for (int i = 0; i < 100; ++i) {  // warmup round trips
        if (ping_only) {
          (*client)->Ping();
        } else {
          (*client)->Get(QueryText(rng.Next() & (kWorkingSet - 1)));
        }
      }
      start.arrive_and_wait();
      uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        bool ok;
        if (ping_only) {
          ok = (*client)->Ping().ok();
        } else {
          ok = (*client)->Get(QueryText(rng.Next() & (kWorkingSet - 1))).ok();
        }
        DoNotOptimize(ok);
        if (!ok) {
          failures.fetch_add(1);
          break;
        }
        ++ops;
      }
      total_ops.fetch_add(ops);
    });
  }
  start.arrive_and_wait();
  const auto begin = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  if (failures.load() != 0) {
    std::fprintf(stderr, "  (%llu request failures)\n",
                 static_cast<unsigned long long>(failures.load()));
  }
  return static_cast<double>(total_ops.load()) / seconds;
}

/// One blocked round trip per request on one connection.
BenchResult RunBlockingGet(const std::string& scenario, uint16_t port,
                           uint64_t iters) {
  MultiplexedClient::Options options;
  options.port = port;
  auto client = MultiplexedClient::Connect(options);
  if (!client.ok()) {
    std::fprintf(stderr, "  %s: cannot connect\n", scenario.c_str());
    return BenchResult{};
  }
  FastRng rng(0xD00D);
  return Measure(scenario, /*warmup=*/iters / 20, iters,
                 /*batch=*/64, [&](uint64_t) {
                   DoNotOptimize((*client)
                                     ->Get(QueryText(rng.Next() &
                                                     (kWorkingSet - 1)))
                                     .ok());
                 });
}

/// Bursts of `window` pipelined GETs on one connection: each measured
/// op starts one buffered request; every `window`-th op awaits the
/// whole burst. The writer path coalesces the burst into one send and
/// the daemon's responses come back batched, so the per-request
/// syscall/wakeup cost is ~1/window of a blocking Get's.
BenchResult RunPipelinedGet(const std::string& scenario, uint16_t port,
                            uint64_t iters, size_t window) {
  auto client = MultiplexedClient::Connect({.port = port});
  if (!client.ok()) {
    std::fprintf(stderr, "  %s: cannot connect\n", scenario.c_str());
    return BenchResult{};
  }
  FastRng rng(0xF00D);
  std::deque<MultiplexedClient::Ticket> inflight;
  std::atomic<uint64_t> failures{0};
  auto drain = [&] {
    while (!inflight.empty()) {
      if (!(*client)->Await(inflight.front()).ok()) failures.fetch_add(1);
      inflight.pop_front();
    }
  };
  BenchResult r = Measure(
      scenario, /*warmup=*/iters / 20, iters, /*batch=*/256,
      [&](uint64_t) {
        auto ticket =
            (*client)->StartGet(QueryText(rng.Next() & (kWorkingSet - 1)));
        if (ticket.ok()) inflight.push_back(*ticket);
        if (inflight.size() >= window) drain();
      });
  drain();  // tail (unmeasured)
  if (failures.load() != 0) {
    std::fprintf(stderr, "  (%llu await failures)\n",
                 static_cast<unsigned long long>(failures.load()));
  }
  return r;
}

/// `threads` application threads sharing ONE multiplexed connection,
/// each issuing blocking Gets (start+await); their frames coalesce on
/// the shared writer, and whichever thread holds the read role
/// demultiplexes the responses by id.
BenchResult RunMuxThreads(uint16_t port, int threads,
                          uint64_t iters_per_thread) {
  auto client = MultiplexedClient::Connect({.port = port});
  if (!client.ok()) {
    std::fprintf(stderr, "  loopback_get_mux: cannot connect\n");
    return BenchResult{};
  }
  constexpr uint64_t kBatch = 64;
  std::mutex samples_mu;
  std::vector<double> samples;
  std::atomic<uint64_t> failures{0};
  std::barrier start(threads + 1);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      FastRng rng(0xACE + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < iters_per_thread / 20; ++i) {  // warmup
        (*client)->Get(QueryText(rng.Next() & (kWorkingSet - 1)));
      }
      start.arrive_and_wait();
      std::vector<double> local;
      local.reserve(static_cast<size_t>(iters_per_thread / kBatch) + 1);
      uint64_t done = 0;
      while (done < iters_per_thread) {
        const uint64_t n = std::min(kBatch, iters_per_thread - done);
        const auto begin = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < n; ++i) {
          if (!(*client)
                   ->Get(QueryText(rng.Next() & (kWorkingSet - 1)))
                   .ok()) {
            failures.fetch_add(1);
          }
        }
        bench::ClobberMemory();
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - begin)
                                   .count();
        // Normalized by the thread count so the percentile columns use
        // the same aggregate wall-clock-per-op units as the mean (a
        // per-thread Get latency includes the other threads' turns on
        // the shared connection).
        local.push_back(seconds * 1e9 /
                        static_cast<double>(n * static_cast<uint64_t>(
                                                    threads)));
        done += n;
      }
      std::lock_guard<std::mutex> lock(samples_mu);
      samples.insert(samples.end(), local.begin(), local.end());
    });
  }
  start.arrive_and_wait();
  const auto begin = std::chrono::steady_clock::now();
  for (auto& t : pool) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  if (failures.load() != 0) {
    std::fprintf(stderr, "  (%llu get failures)\n",
                 static_cast<unsigned long long>(failures.load()));
  }
  BenchResult r = MakeResult(
      "loopback_get_mux" + std::to_string(threads) + "t", threads,
      iters_per_thread * static_cast<uint64_t>(threads), seconds,
      std::move(samples));
  bench::PrintResult(r);
  return r;
}

int Run(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  std::string baseline_label = "baseline";
  ServerBackend backend = ServerBackend::kEpoll;
  double scale = 1.0;
  int max_threads = 8;
  int ms_per_point = 400;
  bool sweep = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--baseline-label=", 0) == 0) {
      baseline_label = arg.substr(17);
    } else if (arg.rfind("--backend=", 0) == 0) {
      if (!ParseServerBackend(arg.substr(10), &backend)) {
        std::fprintf(stderr, "unknown --backend (epoll|io_uring|auto)\n");
        return 2;
      }
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::strtod(arg.c_str() + 8, nullptr);
      if (scale <= 0.0) scale = 1.0;
    } else if (arg.rfind("--threads=", 0) == 0) {
      max_threads = std::atoi(arg.c_str() + 10);
      if (max_threads < 1) max_threads = 1;
    } else if (arg.rfind("--ms=", 0) == 0) {
      ms_per_point = std::atoi(arg.c_str() + 5);
      if (ms_per_point < 10) ms_per_point = 10;
    } else if (arg == "--no-sweep") {
      sweep = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH] [--baseline=PATH] "
                   "[--baseline-label=STR] [--backend=epoll|io_uring|auto] "
                   "[--scale=F] [--threads=N] [--ms=N] [--no-sweep]\n",
                   argv[0]);
      return 2;
    }
  }
  // Round-trip scenarios are noisy at small iteration counts (one
  // connection, cold branch predictors), so the floor is generous.
  auto scaled = [scale](double n) {
    return static_cast<uint64_t>(n * scale) < 4000
               ? uint64_t{4000}
               : static_cast<uint64_t>(n * scale);
  };

  PolicyConfig policy;
  policy.kind = PolicyKind::kLncRA;
  policy.k = 4;
  Watchman::Options options;
  options.capacity_bytes = 256ull << 20;  // holds the whole working set
  options.policy = policy;
  options.num_shards = 8;
  Watchman cache(std::move(options), WatchmanServer::MissFillExecutor());

  // The primary server runs the legacy-named scenarios with inline
  // dispatch OFF so loopback_get_blocking / _pipelined / _mux8t stay
  // comparable across the recorded trajectory (they predate the
  // inline fast path). The lever scenarios below each start their own
  // server with one lever flipped.
  WatchmanServer::Options server_options;
  server_options.port = 0;
  server_options.num_workers = static_cast<size_t>(max_threads);
  server_options.backend = backend;
  server_options.inline_dispatch = false;
  WatchmanServer server(&cache, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  // Pre-fill over the wire (miss-fill EXECUTEs).
  {
    MultiplexedClient::Options copts;
    copts.port = server.port();
    auto client = MultiplexedClient::Connect(copts);
    if (!client.ok()) {
      std::fprintf(stderr, "cannot connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    Rng rng(42);
    for (size_t i = 0; i < kWorkingSet; ++i) {
      auto filled = (*client)->Execute(
          QueryText(i), std::string(64 + rng.NextBounded(1024), 'r'),
          100 + rng.NextBounded(20000));
      if (!filled.ok()) {
        std::fprintf(stderr, "prefill failed: %s\n",
                     filled.status().ToString().c_str());
        return 1;
      }
    }
  }

  std::printf("==============================================\n");
  std::printf("watchmand loopback throughput (port %u, backend %s, "
              "%zu shards, %zu cached sets, hardware threads: %u, "
              "scale %.3f)\n",
              static_cast<unsigned>(server.port()),
              ServerBackendName(server.effective_backend()),
              cache.num_shards(), cache.cached_set_count(),
              std::thread::hardware_concurrency(), scale);
  std::printf("==============================================\n");

  JsonReport report("micro_server");
  BenchResult blocking =
      RunBlockingGet("loopback_get_blocking", server.port(), scaled(3e4));
  if (!blocking.scenario.empty()) report.Add(blocking);
  BenchResult pipelined = RunPipelinedGet("loopback_get_pipelined",
                                          server.port(), scaled(2e5),
                                          /*window=*/32);
  if (!pipelined.scenario.empty()) report.Add(pipelined);
  BenchResult mux =
      RunMuxThreads(server.port(), /*threads=*/8, scaled(2e4));
  if (!mux.scenario.empty()) report.Add(mux);
  if (blocking.ops_per_sec > 0 && pipelined.ops_per_sec > 0) {
    std::printf("\npipelined vs blocking (one connection): %.2fx\n",
                pipelined.ops_per_sec / blocking.ops_per_sec);
  }
  if (blocking.ops_per_sec > 0 && mux.ops_per_sec > 0) {
    std::printf("8-thread mux vs blocking (one connection): %.2fx\n",
                mux.ops_per_sec / blocking.ops_per_sec);
  }

  // ---- per-lever scenarios: one server each, one lever flipped ----
  // Inline dispatch on the epoll loop: blocking round trips are
  // answered on the IO thread (no worker handoff), the headline
  // latency lever for a blocking client.
  {
    WatchmanServer::Options opts = server_options;
    opts.backend = ServerBackend::kEpoll;
    opts.inline_dispatch = true;
    WatchmanServer inline_server(&cache, opts);
    if (inline_server.Start().ok()) {
      BenchResult r = RunBlockingGet("loopback_get_blocking_inline",
                                     inline_server.port(), scaled(3e4));
      if (!r.scenario.empty()) report.Add(r);
      if (blocking.ops_per_sec > 0 && r.ops_per_sec > 0) {
        std::printf("inline vs queued blocking RTT: %.2fx\n",
                    r.ops_per_sec / blocking.ops_per_sec);
      }
      std::printf("  (%llu of the requests took the inline path)\n",
                  static_cast<unsigned long long>(
                      inline_server.inline_dispatched()));
      inline_server.Stop();
    }
  }
  // The io_uring completion loop (inline dispatch on as well): batched
  // submission amortizes syscalls under pipelined load.
  {
    WatchmanServer::Options opts = server_options;
    opts.backend = ServerBackend::kIoUring;
    opts.inline_dispatch = true;
    WatchmanServer uring_server(&cache, opts);
    if (!uring_server.Start().ok() ||
        uring_server.effective_backend() != ServerBackend::kIoUring) {
      std::printf("\n(io_uring unavailable on this kernel; skipping "
                  "loopback_*_uring scenarios)\n");
    } else {
      BenchResult r = RunBlockingGet("loopback_get_blocking_uring",
                                     uring_server.port(), scaled(3e4));
      if (!r.scenario.empty()) report.Add(r);
      BenchResult p = RunPipelinedGet("loopback_get_pipelined_uring",
                                      uring_server.port(), scaled(2e5),
                                      /*window=*/32);
      if (!p.scenario.empty()) report.Add(p);
      if (pipelined.ops_per_sec > 0 && p.ops_per_sec > 0) {
        std::printf("uring vs epoll pipelined: %.2fx\n",
                    p.ops_per_sec / pipelined.ops_per_sec);
      }
      uring_server.Stop();
    }
  }

  if (sweep) {
    for (const bool ping_only : {true, false}) {
      std::printf("\n%s (blocking client per thread)\n",
                  ping_only ? "PING (transport + framing floor)"
                            : "GET  (hit-heavy retrieved-set lookups)");
      std::printf("  %-8s %14s %12s %10s\n", "threads", "requests/s",
                  "us/request", "scaling");
      double base = 0.0;
      for (int threads = 1; threads <= max_threads; threads *= 2) {
        const double rps =
            RunSweepPoint(server.port(), threads, ms_per_point, ping_only);
        if (base == 0.0) base = rps;
        std::printf("  %-8d %14.0f %12.2f %9.2fx\n", threads, rps,
                    threads * 1e6 / rps, rps / base);
      }
    }
  }

  const WireStats stats = server.StatsSnapshot();
  std::printf("\nserver-side per-op handler latency:\n");
  for (const WireOpMetrics& op : stats.per_op) {
    std::printf("  %-10s %12llu reqs   mean %8.2f us   max %10.2f us\n",
                OpCodeName(static_cast<OpCode>(op.op)),
                static_cast<unsigned long long>(op.requests),
                op.latency_mean_us, op.latency_max_us);
  }
  std::printf("cache: HR %.3f over %llu lookups\n", stats.hit_ratio(),
              static_cast<unsigned long long>(stats.lookups));

  if (!baseline_path.empty()) {
    auto baseline = JsonReport::LoadResults(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "warning: no baseline results in %s\n",
                   baseline_path.c_str());
    } else {
      report.SetBaseline(baseline, baseline_label);
    }
  }
  if (!json_path.empty()) {
    if (!report.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  server.Stop();
  return 0;
}

}  // namespace
}  // namespace watchman

int main(int argc, char** argv) { return watchman::Run(argc, argv); }
