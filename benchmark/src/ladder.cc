#include "ladder.h"

#include <atomic>
#include <cmath>

#include "cache/query_descriptor.h"
#include "harness.h"
#include "inputs.h"
#include "server/client.h"
#include "sim/experiment.h"
#include "util/string_util.h"
#include "watchman/payload_store.h"
#include "watchman/warehouse.h"

namespace watchman::e2e {
namespace {

constexpr int kBatches = 30;
/// The second half of the ladder's TPC-D trace is timed; the first
/// half warms the caches, as the remote workloads' warm-up does.
constexpr size_t kHalf = 17000;

PolicyConfig Policy(PolicyKind kind) {
  PolicyConfig config;
  config.kind = kind;
  return config;
}

uint64_t OnePercent(uint64_t db_bytes) {
  return static_cast<uint64_t>(
      std::llround(static_cast<double>(db_bytes) / 100.0));
}

/// The facade executor of the ladder: runs the warehouse for the query
/// the calling thread is about to execute.
thread_local const QueryInfo* t_query = nullptr;

Watchman::Executor WarehouseExecutor() {
  return [](const std::string&) -> StatusOr<Watchman::ExecutionResult> {
    SimulatedWarehouse warehouse;
    Watchman::ExecutionResult result = warehouse.Execute(t_query->event);
    result.relations = t_query->relations;
    return result;
  };
}

std::unique_ptr<Watchman> MakeFacade(uint64_t capacity) {
  Watchman::Options options;
  options.capacity_bytes = capacity;
  options.policy = Policy(PolicyKind::kLncRA);
  options.num_shards = 8;
  return std::make_unique<Watchman>(std::move(options), WarehouseExecutor());
}

StatusOr<std::string> FacadeExecute(Watchman* facade, const QueryInfo& q) {
  t_query = &q;
  return facade->Execute(q.text);
}

/// Median over `windows` windows of `window_ms` of the summed rate of
/// `threads` threads each calling `op(thread, i)`.
double MedianRate(int threads, int windows, int window_ms,
                  const std::function<void(int, uint64_t)>& op) {
  std::vector<double> rates;
  for (int w = 0; w < windows; ++w) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> total{0};
    const int64_t start = NowNs();
    RunOnThreads(threads, [&](int t) {
      uint64_t n = 0;
      if (t == 0) {
        const int64_t end = start + int64_t{window_ms} * 1000000;
        while (NowNs() < end) op(t, n++);
        stop.store(true);
      } else {
        while (!stop.load(std::memory_order_relaxed)) op(t, n++);
      }
      total.fetch_add(n);
    });
    rates.push_back(static_cast<double>(total.load()) / SecondsSince(start));
  }
  return Median(std::move(rates));
}

struct LadderInputs {
  Input sq;    // the setquery_hot trace
  Input tpcd;  // 2 x 17 000 TPC-D events (warm-up half, timed half)
  std::vector<std::string> sq_payloads;  // per distinct Set Query query
  std::vector<std::string> sq_ids;       // compressed query IDs
};

// ---------------------------------------------------------------------------

void UtilRungs(const LadderInputs& in, Results* r) {
  const std::vector<uint32_t>& ev = in.sq.events;
  std::string out;
  r->Add("util.compress_ns", "ns",
         MedianNsPerOp(kBatches, 2000, [&](size_t i) {
           CompressQueryIdInto(in.sq.queries[ev[i % ev.size()]].text, &out);
           bench::DoNotOptimize(out.data());
         }),
         kBatches);
  r->Add("util.signature_ns", "ns",
         MedianNsPerOp(kBatches, 2000, [&](size_t i) {
           const Signature sig = ComputeSignature(in.sq_ids[ev[i % ev.size()]]);
           bench::DoNotOptimize(sig);
         }),
         kBatches);
}

void CacheRungs(const LadderInputs& in, Results* r) {
  for (PolicyKind kind : {PolicyKind::kLncRA, PolicyKind::kLru}) {
    const std::string policy = kind == PolicyKind::kLncRA ? "lnc-ra" : "lru";
    // Hits: every Set Query set resident in an 8-shard 64 MiB cache.
    {
      auto cache = MakeShardedCache(Policy(kind), 64ull << 20, 8);
      std::vector<QueryDescriptor> descs;
      for (const QueryInfo& q : in.sq.queries) {
        descs.push_back(QueryDescriptor::FromEvent(q.event));
      }
      Timestamp now = 0;
      for (const QueryDescriptor& d : descs) cache->Reference(d, ++now);
      uint64_t misses = 0;
      const std::vector<uint32_t>& ev = in.sq.events;
      r->Add("cache.hit_ns." + policy, "ns",
             MedianNsPerOp(kBatches, 5000, [&](size_t i) {
               const QueryDescriptor& d = descs[ev[i % ev.size()]];
               misses += cache->Reference(d, ++now) ? 0 : 1;
             }),
             kBatches);
      r->Check(misses == 0, "cache hit rung missed");
    }
    // The TPC-D stream at 1%: mostly misses, admission and eviction.
    {
      auto cache =
          MakeShardedCache(Policy(kind), OnePercent(in.tpcd.db_bytes), 8);
      std::vector<QueryDescriptor> descs;
      for (uint32_t qi : in.tpcd.events) {
        descs.push_back(QueryDescriptor::FromEvent(in.tpcd.queries[qi].event));
      }
      Timestamp now = 0;
      for (size_t i = 0; i < kHalf; ++i) cache->Reference(descs[i], ++now);
      r->Add("cache.miss_ns." + policy, "ns",
             MedianNsPerOp(kBatches, 500, [&](size_t i) {
               bench::DoNotOptimize(
                   cache->Reference(descs[kHalf + i % kHalf], ++now));
             }),
             kBatches);
    }
  }
  // Throughput of 1/2/4 threads on one 8-shard LNC-RA cache.
  auto cache = MakeShardedCache(Policy(PolicyKind::kLncRA),
                                OnePercent(in.tpcd.db_bytes), 8);
  std::vector<QueryDescriptor> descs;
  for (uint32_t qi : in.tpcd.events) {
    descs.push_back(QueryDescriptor::FromEvent(in.tpcd.queries[qi].event));
  }
  Timestamp warm = 0;
  for (size_t i = 0; i < kHalf; ++i) cache->Reference(descs[i], ++warm);
  for (int threads : {1, 2, 4}) {
    r->Add("cache.refs_per_s.t" + std::to_string(threads), "1/s",
           MedianRate(threads, 5, 100, [&](int t, uint64_t n) {
             const size_t at = kHalf + (t * kHalf / 4 + n) % kHalf;
             // Per-thread ticks that interleave: no shared clock line
             // for the threads to contend on.
             const Timestamp now = warm + n * threads + t;
             bench::DoNotOptimize(cache->Reference(descs[at], now));
           }),
           5);
  }
}

void WatchmanRungs(const LadderInputs& in, Results* r) {
  std::string out;
  {
    auto facade = MakeFacade(64ull << 20);
    for (const QueryInfo& q : in.sq.queries) FacadeExecute(facade.get(), q);
    const std::vector<uint32_t>& ev = in.sq.events;
    uint64_t failures = 0;
    r->Add("watchman.get_hit_ns", "ns",
           MedianNsPerOp(kBatches, 2000, [&](size_t i) {
             failures += facade->GetCachedInto(
                             in.sq.queries[ev[i % ev.size()]].text, &out)
                                 .ok()
                             ? 0
                             : 1;
           }),
           kBatches);
    r->Check(failures == 0, "watchman.get_hit rung missed");
  }
  {
    auto facade = MakeFacade(OnePercent(in.tpcd.db_bytes));
    const std::vector<uint32_t>& ev = in.tpcd.events;
    for (size_t i = 0; i < kHalf; ++i) {
      FacadeExecute(facade.get(), in.tpcd.queries[ev[i]]);
    }
    r->Add("watchman.execute_miss_ns", "ns",
           MedianNsPerOp(kBatches, 500, [&](size_t i) {
             const QueryInfo& q = in.tpcd.queries[ev[kHalf + i % kHalf]];
             bench::DoNotOptimize(FacadeExecute(facade.get(), q).ok());
           }),
           kBatches);
  }
  {
    // InvalidateRelation("lineitem") on a refilled 5% cache.
    auto facade = MakeFacade(5 * OnePercent(in.tpcd.db_bytes));
    const std::vector<uint32_t>& ev = in.tpcd.events;
    std::vector<double> us;
    size_t at = 0;
    for (int b = 0; b <= kBatches; ++b) {
      for (int k = 0; k < 2000; ++k, ++at) {
        FacadeExecute(facade.get(), in.tpcd.queries[ev[at % ev.size()]]);
      }
      const int64_t start = NowNs();
      bench::DoNotOptimize(facade->InvalidateRelation("lineitem"));
      if (b > 0) us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    }
    r->Add("watchman.invalidate_relation_us", "us", Median(us), us.size());
  }
  {
    MemoryPayloadStore store;
    for (size_t q = 0; q < in.sq_ids.size(); ++q) {
      store.Put(in.sq_ids[q], in.sq_payloads[q]);
    }
    const std::vector<uint32_t>& ev = in.sq.events;
    r->Add("watchman.store_get_ns", "ns",
           MedianNsPerOp(kBatches, 2000, [&](size_t i) {
             const std::string& id = in.sq_ids[ev[i % ev.size()]];
             bench::DoNotOptimize(store.GetInto(id, &out).ok());
           }),
           kBatches);
  }
  {
    // Put at TPC-D payload sizes into an empty store; the erase that
    // empties it again is not timed.
    std::vector<std::string> ids;
    std::vector<std::string> payloads;
    for (size_t q = 0; q < std::min<size_t>(500, in.tpcd.queries.size()); ++q) {
      ids.push_back(in.tpcd.queries[q].event.query_id);
      payloads.push_back(
          MakeFill(in.tpcd.queries[q], static_cast<uint32_t>(q), 1).payload);
    }
    MemoryPayloadStore store;
    std::vector<double> ns;
    for (int b = 0; b <= kBatches; ++b) {
      const int64_t start = NowNs();
      for (size_t k = 0; k < ids.size(); ++k) store.Put(ids[k], payloads[k]);
      if (b > 0) {
        ns.push_back(static_cast<double>(NowNs() - start) /
                     static_cast<double>(ids.size()));
      }
      for (const std::string& id : ids) store.Erase(id);
    }
    r->Add("watchman.store_put_ns", "ns", Median(ns), ns.size());
  }
}

void ProtocolRungs(const LadderInputs& in, Results* r) {
  std::string wire;
  WireRequest request;
  WireRequest decoded;
  WireResponse response;
  uint64_t failures = 0;
  // One GET through the codec both ways, as client and daemon see it.
  auto round = [&](const std::string& payload) {
    wire.clear();
    AppendRequest(request, &wire);
    std::string_view body;
    size_t size = 0;
    failures += ExtractFrame(wire, kDefaultMaxFrameBytes, &body, &size).ok() &&
                        DecodeRequestInto(body, &decoded).ok()
                    ? 0
                    : 1;
    response.Reset(decoded.op);
    response.request_id = decoded.request_id;
    response.cache_hit = true;
    response.payload = payload;
    wire.clear();
    AppendResponse(response, &wire);
    failures += ExtractFrame(wire, kDefaultMaxFrameBytes, &body, &size).ok() &&
                        DecodeResponse(body).ok()
                    ? 0
                    : 1;
  };
  const std::vector<uint32_t>& sq = in.sq.events;
  request.op = OpCode::kGet;
  r->Add("protocol.get_ns", "ns",
         MedianNsPerOp(kBatches, 1000, [&](size_t i) {
           const uint32_t qi = sq[i % sq.size()];
           request.request_id = i;
           request.query_text = in.sq.queries[qi].text;
           round(in.sq_payloads[qi]);
         }),
         kBatches);
  std::vector<Watchman::ExecutionResult> fills;
  for (size_t q = 0; q < std::min<size_t>(2000, in.tpcd.queries.size()); ++q) {
    fills.push_back(MakeFill(in.tpcd.queries[q], static_cast<uint32_t>(q), 1));
  }
  request.op = OpCode::kExecute;
  request.has_fill = true;
  r->Add("protocol.execute_fill_ns", "ns",
         MedianNsPerOp(kBatches, 1000, [&](size_t i) {
           const size_t q = i % fills.size();
           request.request_id = i;
           request.query_text = in.tpcd.queries[q].text;
           request.fill_payload = fills[q].payload;
           request.fill_cost = fills[q].cost;
           request.fill_relations = fills[q].relations;
           round(fills[q].payload);
         }),
         kBatches);
  r->Check(failures == 0, "codec round trip failed");
}

/// Transport rungs against a daemon pinned to each backend, from a
/// benchmark-owned blocking socket; then the client library's own
/// cost against the backend `auto` selects.
void ServerAndClientRungs(const RunConfig& config, const LadderInputs& in,
                          Results* r) {
  std::string client_backend = "epoll";
  uint16_t client_port = 0;
  std::vector<std::unique_ptr<Daemon>> daemons;
  for (const char* backend : {"epoll", "io_uring"}) {
    Daemon::Options options;
    options.binary = config.daemon_binary;
    options.workdir = config.workdir;
    options.capacity_bytes = 64ull << 20;
    options.backend = backend;
    StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
    StatusOr<std::unique_ptr<RawConn>> conn =
        daemon.ok() ? RawConn::Connect((*daemon)->port())
                    : StatusOr<std::unique_ptr<RawConn>>(daemon.status());
    if (!conn.ok()) {
      r->Check(false,
               std::string(backend) + " daemon: " + conn.status().ToString());
      return;
    }
    const std::string effective = (*daemon)->EffectiveBackend();
    r->info.emplace_back(std::string("ladder_backend_") + backend, effective);
    if (effective == "io_uring") {
      client_backend = effective;
      client_port = (*daemon)->port();
    } else if (client_port == 0) {
      client_port = (*daemon)->port();
    }
    RawConn& c = **conn;
    uint64_t failures = 0;
    WireRequest req;
    req.op = OpCode::kExecute;
    req.has_fill = true;
    for (size_t q = 0; q < in.sq.queries.size(); ++q) {
      req.query_text = in.sq.queries[q].text;
      req.fill_payload = in.sq_payloads[q];
      req.fill_cost = in.sq.queries[q].event.cost_block_reads;
      StatusOr<WireResponse> resp = c.RoundTrip(req);
      failures += resp.ok() && resp->code == StatusCode::kOk ? 0 : 1;
    }
    WireRequest ping;
    ping.op = OpCode::kPing;
    r->Add(std::string("server.ping_rtt_us.") + backend, "us",
           MedianNsPerOp(kBatches, 200, [&](size_t i) {
             ping.request_id = i;
             failures += c.RoundTrip(ping).ok() ? 0 : 1;
           }) / 1e3,
           kBatches);
    WireRequest get;
    get.op = OpCode::kGet;
    const std::vector<uint32_t>& ev = in.sq.events;
    r->Add(std::string("server.get_rtt_us.") + backend, "us",
           MedianNsPerOp(kBatches, 200, [&](size_t i) {
             get.request_id = i;
             get.query_text = in.sq.queries[ev[i % ev.size()]].text;
             StatusOr<WireResponse> resp = c.RoundTrip(get);
             failures += resp.ok() && resp->code == StatusCode::kOk ? 0 : 1;
           }) / 1e3,
           kBatches);
    // Pipelined: a window of 32 GETs kept full on one connection.
    std::string frame;
    size_t sent = 0;
    auto send_next = [&] {
      get.request_id = sent;
      get.query_text = in.sq.queries[ev[sent % ev.size()]].text;
      frame.clear();
      AppendRequest(get, &frame);
      ++sent;
      failures += c.Send(frame).ok() ? 0 : 1;
    };
    for (int k = 0; k < 32; ++k) send_next();
    const double ns_per_get = MedianNsPerOp(kBatches, 1000, [&](size_t) {
      StatusOr<WireResponse> resp = c.Receive();
      failures += resp.ok() && resp->code == StatusCode::kOk ? 0 : 1;
      send_next();
    });
    for (int k = 0; k < 32; ++k) failures += c.Receive().ok() ? 0 : 1;
    r->Add(std::string("server.pipelined_get_rps.") + backend, "1/s",
           1e9 / ns_per_get, kBatches);
    r->Check(failures == 0, std::string(backend) + " transport rung failed");
    daemons.push_back(std::move(*daemon));
  }
  r->info.emplace_back("client_rung_backend", client_backend);

  MultiplexedClient::Options options;
  options.port = client_port;
  options.shed_retries = 0;
  StatusOr<std::unique_ptr<MultiplexedClient>> client =
      MultiplexedClient::Connect(options);
  if (!client.ok()) {
    r->Check(false, "client rung: " + client.status().ToString());
    return;
  }
  const std::vector<uint32_t>& ev = in.sq.events;
  std::atomic<uint64_t> failures{0};
  auto get = [&](uint64_t i) {
    StatusOr<MultiplexedClient::FetchResult> f =
        (*client)->Get(in.sq.queries[ev[i % ev.size()]].text);
    if (!f.ok() || !f->cache_hit) failures.fetch_add(1);
  };
  r->Add("client.get_rtt_us", "us",
         MedianNsPerOp(kBatches, 200, [&](size_t i) { get(i); }) / 1e3,
         kBatches);
  for (int threads : {1, 2, 3}) {
    r->Add("client.mux_rps.t" + std::to_string(threads), "1/s",
           MedianRate(threads, 5, 100,
                      [&](int t, uint64_t n) {
                        get(n * 3 + static_cast<uint64_t>(t));
                      }),
           5);
  }
  r->Check(failures.load() == 0, "client rung failed");
}

void SimRungs(const RunConfig& config, Results* r) {
  const Trace tpcd = MakeTrace(Benchmark::kTpcd, config.seed, kHalf);
  const uint64_t tpcd_db = DatabaseBytes(Benchmark::kTpcd);
  const struct {
    PolicyKind kind;
    const char* name;
  } policies[] = {{PolicyKind::kLncRA, "lnc-ra"},
                  {PolicyKind::kLncR, "lnc-r"},
                  {PolicyKind::kLru, "lru"}};
  for (const auto& policy : policies) {
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t start = NowNs();
      const RunResult run =
          RunSimulation(tpcd, Policy(policy.kind), OnePercent(tpcd_db));
      bench::DoNotOptimize(run.hit_ratio);
      rates.push_back(static_cast<double>(tpcd.size()) / SecondsSince(start));
    }
    r->Add(std::string("sim.refs_per_s.") + policy.name, "1/s", Median(rates),
           rates.size());
  }
  // The paper's metric and fidelity guards: mean CSR of each policy over
  // the paper's grid of cache sizes, on bench_fig4_cost_savings' traces
  // for the default seed. The report lists LNC-RA's per-size CSRs, which
  // for seed 9601 equal that bench's.
  const Trace sq = MakeTrace(Benchmark::kSetQuery, config.seed + 1, kHalf);
  const uint64_t sq_db = DatabaseBytes(Benchmark::kSetQuery);
  for (const auto& policy : policies) {
    double sum = 0.0;
    int n = 0;
    std::string per_size;
    for (const auto& [trace, db] : {std::pair{&tpcd, tpcd_db}, {&sq, sq_db}}) {
      CacheSizeSweep sweep(*trace, db);
      sweep.AddPolicy(Policy(policy.kind));
      for (double pct : {0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0}) {
        sweep.AddCachePercent(pct);
      }
      sweep.Run();
      per_size += per_size.empty() ? "TPC-D" : "; Set Query";
      for (const SweepCell& cell : sweep.cells()) {
        sum += cell.result.cost_savings_ratio;
        ++n;
        per_size += " " + JsonNumber(cell.result.cost_savings_ratio);
      }
    }
    r->Add(std::string("sim.csr.") + policy.name, "ratio", sum / n);
    if (policy.kind == PolicyKind::kLncRA) {
      r->info.emplace_back("lnc_ra_csr_by_size", per_size);
    }
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 10; ++rep) {
    const int64_t start = NowNs();
    for (auto [benchmark, seed] : {std::pair{Benchmark::kTpcd, config.seed},
                                   {Benchmark::kSetQuery, config.seed + 1}}) {
      bench::DoNotOptimize(MakeTrace(benchmark, seed, kHalf).size());
    }
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  r->Add("workload.trace_gen_ms", "ms", Median(ms), ms.size());
}

/// Per-layer numbers from a remote workload's observation: deltas of
/// the daemon's /metrics families over its measured phase.
double Delta(const Observation& o, const char* family,
             const char* filter = "") {
  return o.after.Sum(family, filter) - o.before.Sum(family, filter);
}
double PerQuery(const Observation& o, const char* family) {
  return o.queries == 0 ? 0.0
                        : Delta(o, family) / static_cast<double>(o.queries);
}
double QuantileUs(const Observation& o, const char* family, const char* filter,
                  double q) {
  return DeltaQuantile(o.before, o.after, family, filter, q) * 1e6;
}

}  // namespace

void RunLadder(const RunConfig& config, const std::string& workload,
               const Observation& own, Results* results) {
  const int64_t start = NowNs();
  // The remote workloads' per-layer numbers: the traced workload's own
  // run, two-second slices of the others.
  Observation tpcd_remote, setquery_hot, refresh;
  const struct {
    const char* name;
    Observation* slot;
    void (*run)(const RunConfig&, Results*, Observation*);
  } remotes[] = {{"tpcd_remote", &tpcd_remote, RunTpcdRemote},
                 {"setquery_hot", &setquery_hot, RunSetQueryHot},
                 {"tpcd_refresh", &refresh, RunTpcdRefresh}};
  for (const auto& remote : remotes) {
    if (workload == remote.name) {
      *remote.slot = own;
      continue;
    }
    RunConfig slice = config;
    slice.seconds = 2.0;
    slice.repeat_setup = false;
    slice.traced = true;
    slice.chrome_trace.clear();
    Results slice_results;
    remote.run(slice, &slice_results, remote.slot);
    results->attempted += slice_results.attempted;
    results->failed += slice_results.failed;
    for (const std::string& f : slice_results.check_failures) {
      results->check_failures.push_back(std::string(remote.name) +
                                        " slice: " + f);
    }
  }

  LadderInputs in;
  in.sq = MakeInput(Benchmark::kSetQuery, config.seed, kHalf);
  in.tpcd = MakeInput(Benchmark::kTpcd, config.seed, 2 * kHalf);
  for (uint32_t q = 0; q < in.sq.queries.size(); ++q) {
    in.sq_payloads.push_back(MakeFill(in.sq.queries[q], q, 1).payload);
    in.sq_ids.push_back(in.sq.queries[q].event.query_id);
  }
  UtilRungs(in, results);
  CacheRungs(in, results);
  WatchmanRungs(in, results);
  ProtocolRungs(in, results);
  ServerAndClientRungs(config, in, results);
  SimRungs(config, results);

  Results& r = *results;
  const Observation& tr = tpcd_remote;
  r.Add("cache.lock_contended_ratio", "ratio",
        Delta(tr, "watchman_cache_lock_contended_total") /
            std::max(1.0, Delta(tr, "watchman_cache_lock_acquisitions_total")));
  r.Add("cache.evictions_per_query", "ratio",
        PerQuery(tr, "watchman_cache_evictions_total"));
  r.Add("cache.admission_rejects_per_query", "ratio",
        PerQuery(tr, "watchman_cache_admission_rejects_total"));
  r.Add("watchman.executions_per_query", "ratio",
        PerQuery(tr, "watchman_facade_executions_total"));
  r.Add("watchman.dedup_per_query", "ratio",
        PerQuery(tr, "watchman_facade_dedup_total"));
  const char* service = "watchman_server_request_seconds";
  r.Add("server.service_us_p50.get", "us",
        QuantileUs(tr, service, "op=\"get\"", 0.5));
  r.Add("server.service_us_p50.execute", "us",
        QuantileUs(tr, service, "op=\"execute\"", 0.5));
  r.Add("server.service_us_p99.execute", "us",
        QuantileUs(tr, service, "op=\"execute\"", 0.99));
  const Observation& ro = refresh;
  r.Add("server.queue_wait_us_p99", "us",
        QuantileUs(ro, "watchman_server_queue_wait_seconds", "", 0.99));
  r.Add("server.ready_queue_peak", "count",
        ro.after.Sum("watchman_server_ready_queue_peak"));
  // Inline GETs record no reply stage, so the reply rung reads
  // tpcd_remote's worker-path EXECUTEs.
  r.Add("server.reply_us_p99", "us",
        QuantileUs(tr, "watchman_server_reply_seconds", "", 0.99));
  const Observation& sh = setquery_hot;
  r.Add("server.inline_share", "ratio",
        Delta(sh, "watchman_server_inline_dispatched_total") /
            std::max(1.0, Delta(sh, "watchman_server_requests_served_total")));
  double sheds = 0.0;
  double queries = 0.0;
  for (const Observation* o : {&tr, &sh, &ro}) {
    sheds += Delta(*o, "watchman_server_shed_total");
    queries += static_cast<double>(o->queries);
  }
  r.Add("server.sheds_per_query", "ratio", sheds / std::max(1.0, queries));
  r.Add("client.update_p50_us", "us", ro.update_p50_us);
  r.Add("check.protocol_stale_fills", "count",
        static_cast<double>(ro.protocol_stale_fills));
  r.Add("span.query.self_us", "us", ro.spans.MeanSelfUs("query"));
  r.Add("span.client_get_us", "us", ro.spans.MeanUs("client.get"));
  r.Add("span.warehouse_us", "us", ro.spans.MeanUs("warehouse"));
  r.Add("span.client_fill_us", "us", ro.spans.MeanUs("client.fill"));
  r.Add("span.client_update_us", "us", ro.spans.MeanUs("client.update"));
  r.Add("trace.overhead_pct", "%", own.trace_overhead_pct);
  r.Add("loadgen.loopback_rtt_us", "us", tr.loopback_rtt_us);
  r.info.emplace_back("ladder_seconds", JsonNumber(SecondsSince(start)));
}

}  // namespace watchman::e2e
