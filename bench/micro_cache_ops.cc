// Micro benches of the cache hot path, on the bench/harness.h harness
// (pinned iterations, steady_clock batch timing, compiler barriers).
//
// Scenarios, each reported as ops/sec + ns/op p50/p99 and written to
// BENCH_micro.json:
//   hit_lru / hit_lnc_ra      -- pure hit path at full occupancy (the
//                                acceptance scenario: a cache reference
//                                must be far cheaper than re-execution)
//   miss_evict_lru / _lnc_ra  -- miss + admission + eviction churn at a
//                                capacity far below the working set
//   sharded_concurrent        -- hit-heavy mix on ShardedQueryCache from
//                                multiple threads (8 shards)
//   loopback_get              -- full watchmand round trip: GET hits over
//                                a loopback socket, one blocking client
//   signature_compute /       -- the per-request key-derivation floor
//   compress_query_id
//
// Usage: bench_micro_cache_ops [--json=PATH] [--baseline=PATH]
//          [--baseline-label=STR] [--scale=F] [--no-server]
//
//   --json       write BENCH_micro.json-format report to PATH
//   --baseline   embed a previous report's results as the baseline
//                section (before/after in one file)
//   --scale      multiply all iteration budgets (CI smoke uses 0.02)

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "cache/query_descriptor.h"
#include "cache/sharded_query_cache.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/policy_config.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/string_util.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

using bench::BenchResult;
using bench::DoNotOptimize;
using bench::JsonReport;
using bench::MakeResult;
using bench::Measure;

/// Cheap per-thread index stream (xorshift64*), so the measured loop is
/// the cache reference, not the RNG.
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

QueryDescriptor MakeDesc(const std::string& id, uint64_t bytes,
                         uint64_t cost) {
  return QueryDescriptor::Make(id, bytes, cost);
}

std::vector<QueryDescriptor> MakeDescriptors(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryDescriptor> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(MakeDesc(
        "select agg from rel where param\x1f" + std::to_string(i),
        64 + rng.NextBounded(1024), 100 + rng.NextBounded(20000)));
  }
  return out;
}

uint64_t TotalBytes(const std::vector<QueryDescriptor>& descriptors) {
  uint64_t total = 0;
  for (const auto& d : descriptors) total += d.result_bytes;
  return total;
}

/// Pure hit path: every descriptor cached, references loop over them.
/// `working_set` must be a power of two (indexed by mask); the 4k and
/// 64k LNC variants demonstrate the O(log n)-per-reference scaling of
/// lazy profit maintenance.
BenchResult RunHit(const std::string& scenario, PolicyKind kind,
                   uint64_t iters, size_t working_set = 4096) {
  auto descriptors = MakeDescriptors(working_set, 42);
  PolicyConfig config;
  config.kind = kind;
  config.k = 4;
  std::unique_ptr<QueryCache> cache =
      MakeCache(config, TotalBytes(descriptors) * 2);
  Timestamp now = 0;
  for (const auto& d : descriptors) cache->Reference(d, now += 1000);
  FastRng rng(0xC0FFEE);
  const uint64_t mask = working_set - 1;
  return Measure(scenario, /*warmup=*/iters / 20, iters, /*batch=*/4096,
                 [&](uint64_t) {
                   const QueryDescriptor& d = descriptors[rng.Next() & mask];
                   DoNotOptimize(cache->Reference(d, ++now));
                 });
}

/// The hit_lru loop with the observability hot path attached: one
/// counter increment and one log-histogram record per reference, the
/// same per-op work the server does when --admin-port metrics are on.
/// Compare against hit_lru to read off the instrumentation overhead.
BenchResult RunMetricsOverhead(uint64_t iters) {
  constexpr size_t kWorkingSet = 4096;
  auto descriptors = MakeDescriptors(kWorkingSet, 42);
  PolicyConfig config;
  config.kind = PolicyKind::kLru;
  config.k = 4;
  std::unique_ptr<QueryCache> cache =
      MakeCache(config, TotalBytes(descriptors) * 2);
  Timestamp now = 0;
  for (const auto& d : descriptors) cache->Reference(d, now += 1000);
  FastRng rng(0xC0FFEE);
  obs::Counter requests;
  obs::LogHistogram latency;
  return Measure("metrics_overhead", /*warmup=*/iters / 20, iters,
                 /*batch=*/4096, [&](uint64_t) {
                   const QueryDescriptor& d =
                       descriptors[rng.Next() & (kWorkingSet - 1)];
                   DoNotOptimize(cache->Reference(d, ++now));
                   requests.Inc();
                   latency.Record(static_cast<int64_t>(now & 0xFFFF) + 1);
                 });
}

/// Miss-dominated path: working set 16x the capacity, uniform access --
/// admission, eviction and (for LNC) retained-info traffic every call.
BenchResult RunMissEvict(const std::string& scenario, PolicyKind kind,
                         uint64_t iters) {
  constexpr size_t kWorkingSet = 1 << 15;
  auto descriptors = MakeDescriptors(kWorkingSet, 77);
  PolicyConfig config;
  config.kind = kind;
  config.k = 4;
  std::unique_ptr<QueryCache> cache =
      MakeCache(config, TotalBytes(descriptors) / 16);
  Timestamp now = 0;
  FastRng rng(0xFEED);
  return Measure(scenario, /*warmup=*/iters / 20, iters, /*batch=*/4096,
                 [&](uint64_t) {
                   const QueryDescriptor& d =
                       descriptors[rng.Next() & (kWorkingSet - 1)];
                   DoNotOptimize(cache->Reference(d, ++now));
                 });
}

/// Hit-heavy references on the sharded front-end from several threads.
BenchResult RunShardedConcurrent(uint64_t iters_per_thread) {
  constexpr size_t kWorkingSet = 4096;
  constexpr int kThreads = 4;
  constexpr size_t kShards = 8;
  constexpr uint64_t kBatch = 4096;
  auto descriptors = MakeDescriptors(kWorkingSet, 42);
  PolicyConfig config;
  config.kind = PolicyKind::kLncRA;
  config.k = 4;
  auto cache =
      MakeShardedCache(config, TotalBytes(descriptors) * 2, kShards);
  std::atomic<Timestamp> clock{0};
  for (const auto& d : descriptors) {
    cache->Reference(d, clock.fetch_add(1000) + 1000);
  }

  std::mutex samples_mu;
  std::vector<double> samples;
  std::barrier start(kThreads + 1);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FastRng rng(0xBEEF + static_cast<uint64_t>(t));
      // Per-thread warmup before the barrier.
      for (uint64_t i = 0; i < iters_per_thread / 20; ++i) {
        const QueryDescriptor& d =
            descriptors[rng.Next() & (kWorkingSet - 1)];
        cache->Reference(d, clock.load(std::memory_order_relaxed));
      }
      start.arrive_and_wait();
      std::vector<double> local;
      local.reserve(static_cast<size_t>(iters_per_thread / kBatch) + 1);
      uint64_t done = 0;
      while (done < iters_per_thread) {
        const uint64_t n = std::min(kBatch, iters_per_thread - done);
        const auto begin = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < n; ++i) {
          const QueryDescriptor& d =
              descriptors[rng.Next() & (kWorkingSet - 1)];
          // Coarse ticks keep the shared clock off the critical path.
          const Timestamp now = (i % 64 == 0)
                                    ? clock.fetch_add(64) + 64
                                    : clock.load(std::memory_order_relaxed);
          DoNotOptimize(cache->Reference(d, now));
        }
        bench::ClobberMemory();
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - begin)
                                   .count();
        local.push_back(seconds * 1e9 / static_cast<double>(n));
        done += n;
      }
      std::lock_guard<std::mutex> lock(samples_mu);
      samples.insert(samples.end(), local.begin(), local.end());
    });
  }
  start.arrive_and_wait();
  const auto begin = std::chrono::steady_clock::now();
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  BenchResult r = MakeResult("sharded_concurrent", kThreads,
                             iters_per_thread * kThreads, seconds,
                             std::move(samples));
  bench::PrintResult(r);
  // Per-shard lock contention: how well the shard fan-out spreads the
  // reference stream across the mutexes.
  const auto total = cache->total_lock_stats();
  std::printf("    shard locks: %llu acquisitions, %llu contended "
              "(%.2f%%); per shard:",
              static_cast<unsigned long long>(total.acquisitions),
              static_cast<unsigned long long>(total.contended),
              100.0 * total.contention_ratio());
  for (size_t s = 0; s < cache->num_shards(); ++s) {
    const auto ls = cache->lock_stats(s);
    std::printf(" %llu/%llu",
                static_cast<unsigned long long>(ls.contended),
                static_cast<unsigned long long>(ls.acquisitions));
  }
  std::printf("\n");
  return r;
}

/// Full daemon round trip: GET hits over a loopback socket.
BenchResult RunLoopbackGet(uint64_t iters) {
  constexpr size_t kWorkingSet = 1024;
  PolicyConfig policy;
  policy.kind = PolicyKind::kLncRA;
  policy.k = 4;
  Watchman::Options options;
  options.capacity_bytes = 64ull << 20;
  options.policy = policy;
  options.num_shards = 8;
  Watchman cache(std::move(options), WatchmanServer::MissFillExecutor());
  WatchmanServer::Options server_options;
  server_options.port = 0;
  server_options.num_workers = 2;
  WatchmanServer server(&cache, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "  loopback_get: cannot start server, skipped\n");
    return BenchResult{};
  }
  MultiplexedClient::Options copts;
  copts.port = server.port();
  auto client = MultiplexedClient::Connect(copts);
  if (!client.ok()) {
    std::fprintf(stderr, "  loopback_get: cannot connect, skipped\n");
    return BenchResult{};
  }
  auto query = [](uint64_t i) {
    return "select agg from rel where param = " + std::to_string(i);
  };
  Rng rng(42);
  for (size_t i = 0; i < kWorkingSet; ++i) {
    auto filled = (*client)->Execute(
        query(i), std::string(64 + rng.NextBounded(1024), 'r'),
        100 + rng.NextBounded(20000));
    if (!filled.ok()) {
      std::fprintf(stderr, "  loopback_get: prefill failed, skipped\n");
      return BenchResult{};
    }
  }
  FastRng idx(0xD00D);
  BenchResult r = Measure(
      "loopback_get", /*warmup=*/iters / 20, iters, /*batch=*/64,
      [&](uint64_t) {
        DoNotOptimize(
            (*client)->Get(query(idx.Next() & (kWorkingSet - 1))).ok());
      });
  server.Stop();
  return r;
}

BenchResult RunSignatureCompute(uint64_t iters) {
  const std::string text =
      "select l_returnflag l_linestatus sum(l_quantity) from lineitem "
      "where l_shipdate <= date '1998-09-02' group by l_returnflag";
  return Measure("signature_compute", iters / 20, iters, 4096,
                 [&](uint64_t) { DoNotOptimize(ComputeSignature(text)); });
}

BenchResult RunCompressQueryId(uint64_t iters) {
  const std::string text =
      "SELECT   o_orderpriority, COUNT(*)\nFROM orders, lineitem\n"
      "WHERE o_orderdate >= DATE '1995-04-01'\nGROUP BY o_orderpriority";
  std::string scratch;
  return Measure("compress_query_id", iters / 20, iters, 4096,
                 [&](uint64_t) {
                   scratch = CompressQueryId(text);
                   DoNotOptimize(scratch);
                 });
}

int Run(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  std::string baseline_label = "baseline";
  double scale = 1.0;
  bool run_server = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--baseline-label=", 0) == 0) {
      baseline_label = arg.substr(17);
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::strtod(arg.c_str() + 8, nullptr);
      if (scale <= 0.0) scale = 1.0;
    } else if (arg == "--no-server") {
      run_server = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH] [--baseline=PATH] "
                   "[--baseline-label=STR] [--scale=F] [--no-server]\n",
                   argv[0]);
      return 2;
    }
  }
  auto scaled = [scale](double n) {
    return static_cast<uint64_t>(n * scale) < 1000
               ? uint64_t{1000}
               : static_cast<uint64_t>(n * scale);
  };

  std::printf("==============================================\n");
  std::printf("micro_cache_ops (hardware threads: %u, scale %.3f)\n",
              std::thread::hardware_concurrency(), scale);
  std::printf("==============================================\n");

  JsonReport report("micro_cache_ops");
  report.Add(RunHit("hit_lru", PolicyKind::kLru, scaled(4e6)));
  report.Add(RunMetricsOverhead(scaled(4e6)));
  report.Add(RunHit("hit_lnc_ra", PolicyKind::kLncRA, scaled(2e6)));
  report.Add(RunHit("hit_lnc_ra_64k", PolicyKind::kLncRA, scaled(2e6),
                    /*working_set=*/65536));
  report.Add(RunMissEvict("miss_evict_lru", PolicyKind::kLru, scaled(1e6)));
  report.Add(
      RunMissEvict("miss_evict_lnc_ra", PolicyKind::kLncRA, scaled(1e6)));
  report.Add(RunShardedConcurrent(scaled(5e5)));
  if (run_server) {
    BenchResult loopback = RunLoopbackGet(scaled(3e4));
    if (!loopback.scenario.empty()) report.Add(loopback);
  }
  report.Add(RunSignatureCompute(scaled(4e6)));
  report.Add(RunCompressQueryId(scaled(2e6)));

  if (!baseline_path.empty()) {
    auto baseline = JsonReport::LoadResults(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "warning: no baseline results in %s\n",
                   baseline_path.c_str());
    } else {
      report.SetBaseline(baseline, baseline_label);
      std::printf("\nvs baseline (%s):\n", baseline_label.c_str());
      for (const BenchResult& now : report.results()) {
        for (const BenchResult& then : baseline) {
          if (then.scenario == now.scenario && then.ops_per_sec > 0) {
            std::printf("  %-28s %6.2fx ops/sec\n", now.scenario.c_str(),
                        now.ops_per_sec / then.ops_per_sec);
          }
        }
      }
    }
  }
  if (!json_path.empty()) {
    if (!report.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace watchman

int main(int argc, char** argv) { return watchman::Run(argc, argv); }
