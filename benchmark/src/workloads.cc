#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "harness.h"
#include "inputs.h"
#include "server/client.h"
#include "util/random.h"

namespace watchman::e2e {
namespace {

using Ticket = MultiplexedClient::Ticket;

/// Events replayed before measuring, as in the paper's 17 000-query
/// traces.
constexpr size_t kWarmupEvents = 17000;
/// TPC-D events generated after the warm-up; the measured phase replays
/// them in a loop. A repeat comes 500 000 queries after its original,
/// far beyond the reach of the caches measured here.
constexpr size_t kTpcdMeasuredEvents = 500000;
/// Queries per block when tracing alternates traced/untraced blocks.
constexpr uint64_t kTraceBlock = 256;
/// Spans per recording thread (a traced run keeps the first ones).
constexpr size_t kSpanCapacity = 1 << 17;
/// EXECUTEs setquery_hot's prefill keeps in flight.
constexpr size_t kWindow = 64;
/// tpcd_refresh's completed queries between two refreshes (4 per second
/// where the benchmark landed).
constexpr uint64_t kRefreshEvery = 5250;

uint64_t PercentOf(uint64_t bytes, double percent) {
  return static_cast<uint64_t>(
      std::llround(static_cast<double>(bytes) * percent / 100.0));
}

// ---------------------------------------------------------------------------
// The generator's per-thread state.

struct Tally {
  uint64_t queries = 0;
  uint64_t hits = 0;
  uint64_t failed = 0;
  uint64_t cost_total = 0;
  uint64_t cost_saved = 0;
  /// Per query: latency and completion time.
  std::vector<double> latency_us;
  std::vector<int64_t> done_ns;
  /// When tracing: the latencies of traced and of untraced blocks.
  std::vector<double> traced_us;
  std::vector<double> untraced_us;

  void Record(double us, int64_t done, bool tracing, bool traced_block) {
    latency_us.push_back(us);
    done_ns.push_back(done);
    if (tracing) (traced_block ? traced_us : untraced_us).push_back(us);
  }
  void Merge(const Tally& other) {
    queries += other.queries;
    hits += other.hits;
    failed += other.failed;
    cost_total += other.cost_total;
    cost_saved += other.cost_saved;
    done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
    for (auto [mine, theirs] : {std::pair{&latency_us, &other.latency_us},
                                {&traced_us, &other.traced_us},
                                {&untraced_us, &other.untraced_us}}) {
      mine->insert(mine->end(), theirs->begin(), theirs->end());
    }
  }
  double hit_ratio() const {
    return queries == 0 ? 0.0 : static_cast<double>(hits) / queries;
  }
  double csr() const {
    return cost_total == 0 ? 0.0
                           : static_cast<double>(cost_saved) / cost_total;
  }
  /// Median query time of traced blocks over untraced ones, minus 1, in
  /// percent (medians: queueing spikes land in either kind of block).
  double overhead_pct() const {
    if (traced_us.empty() || untraced_us.empty()) return 0.0;
    return (Median(traced_us) / Median(untraced_us) - 1.0) * 100.0;
  }
};

/// One fill the generator sent: when its data was read from the
/// warehouse and when its EXECUTE was answered.
struct FillRecord {
  uint64_t id = 0;
  uint32_t query = 0;
  int64_t computed_ns = 0;
  int64_t done_ns = 0;
};
/// A cached payload served to a request sent at `start_ns`.
struct ServeRecord {
  uint32_t query = 0;
  uint64_t fill_id = 0;
  int64_t start_ns = 0;
};
struct UpdateRecord {
  uint32_t bit = 0;
  int64_t start_ns = 0;
  int64_t done_ns = 0;
};

/// A query whose GET is on the wire.
struct Pending {
  Ticket ticket = 0;
  bool started = false;
  uint32_t query = 0;
  int64_t sent_ns = 0;
  /// Its root span, or -1 when untraced.
  int32_t root = -1;
};

/// One worker thread's queries: GET, on a miss the warehouse result
/// offered back with EXECUTE, and the answer oracle's online checks.
class Session {
 public:
  Session(const Input* input, MultiplexedClient* client, uint32_t thread,
          bool traced, bool log_serves)
      : spans(thread, traced ? kSpanCapacity : 0),
        input_(input),
        client_(client),
        thread_(thread),
        traced_(traced),
        log_serves_(log_serves) {}

  /// Sends query `qi`'s GET. When tracing, blocks of kTraceBlock
  /// queries alternate traced and untraced, so the tracing overhead is
  /// measured on the same traffic.
  Pending Start(uint32_t qi) {
    Pending p;
    p.query = qi;
    p.sent_ns = NowNs();
    if (traced_ && (issued_++ / kTraceBlock) % 2 == 1) {
      p.root = spans.Open("query", p.sent_ns, qi);
    }
    StatusOr<Ticket> t = client_->StartGet(input_->queries[qi].text);
    p.started = t.ok();
    if (t.ok()) {
      p.ticket = *t;
    } else {
      Fail(t.status().ToString());
    }
    return p;
  }

  /// One refresh: InvalidateRelation of the relation `bit` names.
  void Update(uint32_t bit) {
    const int64_t sent = NowNs();
    StatusOr<uint64_t> dropped =
        client_->InvalidateRelation(RefreshRelationName(bit));
    const int64_t done = NowNs();
    if (!dropped.ok()) {
      Fail("InvalidateRelation: " + dropped.status().ToString());
      ++update_failed;
    }
    updates.push_back({bit, sent, done});
    update_us.push_back(static_cast<double>(done - sent) / 1e3);
    if (traced_) spans.Close(spans.Open("client.update", sent, bit), done);
  }

  /// Completes a query: awaits its GET and fills a miss. Returns the
  /// completion time.
  int64_t Finish(const Pending& p) {
    const QueryInfo& q = input_->queries[p.query];
    bool ok = false;
    bool hit = false;
    if (p.started) {
      StatusOr<WireResponse> get = client_->Await(p.ticket);
      const int64_t got = NowNs();
      spans.Child(p.root, "client.get", p.sent_ns, got);
      if (!get.ok()) {
        Fail(get.status().ToString());
      } else if (get->code == StatusCode::kOk) {
        ok = Served(p.query, get->payload, p.sent_ns);
        hit = true;
      } else if (get->code == StatusCode::kNotFound) {
        // The daemon counts a hit whose payload an invalidation or
        // eviction removed before the fetch, then answers NotFound.
        if (get->message.rfind("payload evicted concurrently", 0) == 0) {
          ++raced_gets;
        }
        ok = FillMiss(p.query, got, p.root, &hit);
      } else {
        Fail(std::string("GET: ") + StatusCodeName(get->code));
      }
    }
    const int64_t end = NowNs();
    spans.Close(p.root, end);
    ++tally.queries;
    tally.cost_total += q.event.cost_block_reads;
    if (ok && hit) {
      ++tally.hits;
      tally.cost_saved += q.event.cost_block_reads;
    }
    if (!ok) ++tally.failed;
    tally.Record(static_cast<double>(end - p.sent_ns) / 1e3, end, traced_,
                 p.root >= 0);
    return end;
  }

  /// Offers every query in `queries` with EXECUTE + fill, kWindow in
  /// flight (setquery_hot's prefill). Each must be admitted fresh.
  void Prefill(const std::vector<uint32_t>& queries) {
    struct InFlight {
      Ticket ticket;
      uint32_t qi;
      std::string payload;
    };
    std::deque<InFlight> window;
    auto complete_one = [&] {
      InFlight f = std::move(window.front());
      window.pop_front();
      StatusOr<WireResponse> r = client_->Await(f.ticket);
      ++prefill_ops;
      if (!r.ok() || r->code != StatusCode::kOk || r->cache_hit ||
          r->payload != f.payload) {
        Fail("prefill EXECUTE of query " + std::to_string(f.qi) + ": " +
             (r.ok() ? StatusCodeName(r->code) : r.status().ToString()));
        ++prefill_failed;
      }
    };
    for (uint32_t qi : queries) {
      if (window.size() == kWindow) complete_one();
      Watchman::ExecutionResult fill =
          MakeFill(input_->queries[qi], qi, NextFillId());
      StatusOr<Ticket> t =
          client_->StartExecute(input_->queries[qi].text, fill.payload,
                                fill.cost, std::move(fill.relations));
      if (!t.ok()) {
        Fail(t.status().ToString());
        ++prefill_failed;
        continue;
      }
      window.push_back({*t, qi, std::move(fill.payload)});
    }
    while (!window.empty()) complete_one();
  }

  void Fail(const std::string& what) {
    if (errors.size() < 5) errors.push_back(what);
  }

  Tally tally;
  SpanBuffer spans;
  std::vector<FillRecord> fills;
  std::vector<ServeRecord> serves;
  std::vector<std::string> errors;
  uint64_t prefill_ops = 0;
  uint64_t prefill_failed = 0;
  uint64_t raced_gets = 0;
  std::vector<UpdateRecord> updates;
  std::vector<double> update_us;
  uint64_t update_failed = 0;

 private:
  uint64_t NextFillId() {
    return (static_cast<uint64_t>(thread_ + 1) << 48) | ++fills_issued_;
  }

  /// Checks a payload served from the cache: synthesized bytes outside
  /// the stamp, and a stamp naming this query.
  bool Served(uint32_t qi, const std::string& payload, int64_t start_ns) {
    const Stamp stamp = ReadStamp(payload);
    if (!BodyMatches(input_->queries[qi], payload, &expected_) ||
        !stamp.valid || stamp.query != qi) {
      Fail("wrong answer for query " + std::to_string(qi));
      return false;
    }
    if (log_serves_) serves.push_back({qi, stamp.fill_id, start_ns});
    return true;
  }

  /// The miss path: warehouse synthesis, then EXECUTE with the fill. A
  /// cached answer (another request filled it meanwhile) is a hit.
  bool FillMiss(uint32_t qi, int64_t computed, int32_t root, bool* hit) {
    const QueryInfo& q = input_->queries[qi];
    const uint64_t id = NextFillId();
    Watchman::ExecutionResult fill = MakeFill(q, qi, id);
    const int64_t sent = NowNs();
    spans.Child(root, "warehouse", computed, sent);
    StatusOr<Ticket> t = client_->StartExecute(q.text, fill.payload, fill.cost,
                                               std::move(fill.relations));
    if (!t.ok()) {
      Fail(t.status().ToString());
      return false;
    }
    StatusOr<WireResponse> r = client_->Await(*t);
    const int64_t done = NowNs();
    spans.Child(root, "client.fill", sent, done);
    if (!r.ok() || r->code != StatusCode::kOk) {
      Fail(std::string("EXECUTE: ") +
           (r.ok() ? StatusCodeName(r->code) : r.status().ToString()));
      return false;
    }
    fills.push_back({id, qi, computed, done});
    if (r->cache_hit) {
      *hit = true;
      return Served(qi, r->payload, sent);
    }
    if (r->payload != fill.payload) {
      Fail("EXECUTE echoed another payload for query " + std::to_string(qi));
      return false;
    }
    return true;
  }

  const Input* input_;
  MultiplexedClient* client_;
  uint32_t thread_;
  bool traced_;
  bool log_serves_;
  uint64_t issued_ = 0;
  uint64_t fills_issued_ = 0;
  std::string expected_;
};

/// Outcome of the coherence oracle over a whole run.
struct Verdict {
  uint64_t unknown_fills = 0;
  uint64_t stale_reads = 0;
  uint64_t protocol_stale_fills = 0;
};

/// Judges every logged serve against the invalidations: a request sent
/// after InvalidateRelation(R) completed must not be served a fill whose
/// EXECUTE completed before that invalidation started. Fills computed
/// before it but still in flight when it started are the miss-fill
/// protocol's known hole: counted, not failed.
Verdict Judge(const Input& input, const std::vector<Session*>& sessions) {
  std::unordered_map<uint64_t, const FillRecord*> fills;
  std::vector<UpdateRecord> updates[3];
  for (const Session* s : sessions) {
    for (const FillRecord& f : s->fills) fills[f.id] = &f;
    for (const UpdateRecord& u : s->updates) updates[u.bit].push_back(u);
  }
  for (auto& list : updates) {
    std::sort(list.begin(), list.end(),
              [](const UpdateRecord& a, const UpdateRecord& b) {
                return a.done_ns < b.done_ns;
              });
  }
  Verdict verdict;
  std::set<uint64_t> protocol_fills;
  for (const Session* s : sessions) {
    for (const ServeRecord& serve : s->serves) {
      const auto it = fills.find(serve.fill_id);
      if (it == fills.end() || it->second->query != serve.query) {
        ++verdict.unknown_fills;
        continue;
      }
      const FillRecord& fill = *it->second;
      for (uint32_t bit : {kOrdersBit, kLineitemBit}) {
        if ((input.queries[serve.query].refresh_mask & bit) == 0) continue;
        const std::vector<UpdateRecord>& list = updates[bit];
        const auto after = std::lower_bound(
            list.begin(), list.end(), serve.start_ns,
            [](const UpdateRecord& u, int64_t t) { return u.done_ns < t; });
        if (after == list.begin()) continue;
        const UpdateRecord& last = *std::prev(after);
        if (fill.done_ns < last.start_ns) {
          ++verdict.stale_reads;
        } else if (fill.computed_ns < last.start_ns) {
          protocol_fills.insert(fill.id);
        }
      }
    }
  }
  verdict.protocol_stale_fills = protocol_fills.size();
  return verdict;
}

// ---------------------------------------------------------------------------
// Shared plumbing of the remote workloads.

struct Remote {
  Input input;
  Daemon::Options options;
  std::unique_ptr<LoopbackProbe> probe;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<MultiplexedClient>> clients;
};

/// Generates the inputs, starts the loopback probe and a fresh daemon,
/// and opens the connections.
Status Setup(const RunConfig& config, Benchmark benchmark, size_t events,
             uint64_t capacity, int connections, Remote* remote) {
  remote->input = MakeInput(benchmark, config.seed, events);
  StatusOr<std::unique_ptr<LoopbackProbe>> probe = LoopbackProbe::Start();
  if (!probe.ok()) return probe.status();
  remote->probe = std::move(*probe);
  remote->options.binary = config.daemon_binary;
  remote->options.workdir = config.workdir;
  remote->options.capacity_bytes = capacity;
  StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(remote->options);
  if (!daemon.ok()) return daemon.status();
  remote->daemon = std::move(*daemon);
  for (int i = 0; i < connections; ++i) {
    MultiplexedClient::Options client_options;
    client_options.port = remote->daemon->port();
    // A shed must surface as a failure, not hide behind a retry.
    client_options.shed_retries = 0;
    StatusOr<std::unique_ptr<MultiplexedClient>> client =
        MultiplexedClient::Connect(client_options);
    if (!client.ok()) return client.status();
    remote->clients.push_back(std::move(*client));
  }
  return Status::OK();
}

/// Merges the sessions' tallies and resets them.
Tally TakeTally(const std::vector<Session*>& sessions) {
  Tally out;
  for (Session* s : sessions) {
    out.Merge(s->tally);
    s->tally = Tally();
  }
  return out;
}

/// Splits a measured phase into windows of about a second. Between two
/// windows the load stops, the daemon is paused and the loopback probe
/// measures the machine's bare round trip. Each window records the
/// daemon's CPU time and the machine's steal time at both ends, and the
/// round trip measured right after it. With `spare` options, each pause
/// also times the set-up of kSparesPerCut fresh daemons, stopping each
/// again: a daemon start's cost drifts from one second to the next, so
/// starts spread over the whole run give setup_s a steadier median than
/// a burst of starts before it.
class Windows {
 public:
  Windows(Daemon* daemon, LoopbackProbe* probe, const Daemon::Options* spare)
      : daemon_(daemon), probe_(probe), spare_(spare), open_(Now()) {}

  /// True once the open window is a second old (never after a failed
  /// cut).
  bool Due() const { return status_.ok() && NowNs() - open_.ns >= kWindowNs; }
  /// Closes the open window, probes the round trip, times the spare
  /// starts and opens the next window. The caller makes sure that no
  /// request is in flight.
  void Cut() {
    const Boundary end = Now();
    const Status paused = daemon_->Pause();
    const double rtt_us = paused.ok() ? probe_->MedianRttUs(kProbeTrips) : 0.0;
    for (int i = 0; paused.ok() && spare_ != nullptr && i < kSparesPerCut;
         ++i) {
      StatusOr<std::unique_ptr<Daemon>> started = Daemon::Start(*spare_);
      if (!started.ok()) {
        if (status_.ok()) status_ = started.status();
        break;
      }
      startup_seconds_.push_back((*started)->startup_seconds());
    }
    daemon_->Resume();
    if (!paused.ok()) {
      status_ = paused;
    } else if (rtt_us <= 0.0) {
      status_ = Status::IOError("loopback probe failed");
    } else {
      windows_.push_back({open_, end, rtt_us});
    }
    open_ = Now();
  }
  /// The first failure of a cut.
  const Status& status() const { return status_; }
  /// Set-up time of every spare daemon started.
  const std::vector<double>& startup_seconds() const {
    return startup_seconds_;
  }

  size_t count() const { return windows_.size(); }
  /// The window `t` falls in (clamped to the first and last).
  size_t Of(int64_t t) const {
    const auto after = std::upper_bound(
        windows_.begin(), windows_.end(), t,
        [](int64_t x, const Window& w) { return x < w.begin.ns; });
    return static_cast<size_t>(std::clamp<ptrdiff_t>(
        after - windows_.begin() - 1, 0, static_cast<ptrdiff_t>(count()) - 1));
  }
  double Seconds(size_t w) const {
    return static_cast<double>(windows_[w].end.ns - windows_[w].begin.ns) /
           1e9;
  }
  double CpuSeconds(size_t w) const {
    return windows_[w].end.cpu_seconds - windows_[w].begin.cpu_seconds;
  }
  double RttUs(size_t w) const { return windows_[w].rtt_us; }
  /// Share of the machine's CPU time the hypervisor gave to other
  /// guests during window `w`.
  double StealShare(size_t w) const {
    return (windows_[w].end.steal_seconds - windows_[w].begin.steal_seconds) /
           (Seconds(w) * kCpus);
  }
  /// The windows the medians are taken over: those of at least half a
  /// second with at most kMaxStealShare stolen, when at least
  /// kMinWindows are; else all. A stretch in which the machine's CPUs
  /// were taken away measures the neighbours, not the code under test.
  std::vector<size_t> Used() const {
    std::vector<size_t> used;
    for (size_t w = 0; w < count(); ++w) {
      if (Seconds(w) * 2e9 >= kWindowNs && StealShare(w) <= kMaxStealShare) {
        used.push_back(w);
      }
    }
    if (used.size() < kMinWindows) {
      used.resize(count());
      for (size_t w = 0; w < count(); ++w) used[w] = w;
    }
    return used;
  }
  /// "<used> of <count> used, <share>% stolen", for the report.
  std::string Describe() const {
    double stolen = 0.0;
    double seconds = 0.0;
    for (size_t w = 0; w < count(); ++w) {
      stolen += StealShare(w) * Seconds(w);
      seconds += Seconds(w);
    }
    char share[32];
    std::snprintf(share, sizeof(share), "%.2f%% stolen",
                  seconds > 0 ? stolen / seconds * 100.0 : 0.0);
    return std::to_string(Used().size()) + " of " + std::to_string(count()) +
           " used, " + share;
  }

 private:
  struct Boundary {
    int64_t ns;
    double cpu_seconds;
    double steal_seconds;
  };
  struct Window {
    Boundary begin;
    Boundary end;
    double rtt_us;
  };
  Boundary Now() const {
    return {NowNs(), daemon_->Proc().cpu_seconds, StealSeconds()};
  }

  static constexpr int64_t kWindowNs = 1000000000;
  /// About 10 ms of round trips: 1% of each window.
  static constexpr int kProbeTrips = 400;
  static constexpr double kMaxStealShare = 0.01;
  static constexpr size_t kMinWindows = 5;
  /// About 60 starts in a 30-second run, some 5 ms per cut.
  static constexpr int kSparesPerCut = 2;
  inline static const double kCpus =
      static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  Daemon* daemon_;
  LoopbackProbe* probe_;
  const Daemon::Options* spare_;
  Boundary open_;
  std::vector<Window> windows_;
  std::vector<double> startup_seconds_;
  Status status_;
};

/// The daemon's counters around a measured phase, and its windows.
struct Phase {
  Phase(Daemon* d, LoopbackProbe* probe, const Daemon::Options* spare)
      : daemon(d), before(d->ScrapeMetrics()), windows(d, probe, spare) {}
  /// Closes the last window; no request may be in flight.
  void End() {
    windows.Cut();
    peak_rss_mib = daemon->Proc().peak_rss_mib;
    after = daemon->ScrapeMetrics();
  }

  Daemon* daemon;
  StatusOr<Scrape> before;
  StatusOr<Scrape> after = Status::Internal("not scraped");
  Windows windows;
  double peak_rss_mib = 0.0;
};

/// Throughput, latency quantiles and daemon CPU per query of each used
/// window, in bare loopback round trips measured right after the window
/// and in absolute units, each summarised by its median over the
/// windows: a noisy neighbour that slows one stretch of the run moves
/// one window, not the result.
struct WindowMedians {
  double queries_per_rtt = 0.0;
  double p50_rtt = 0.0;
  double p99_rtt = 0.0;
  double cpu_rtt_per_query = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double cpu_us_per_query = 0.0;
  double rtt_us = 0.0;
};
WindowMedians Summarize(const Windows& windows, const Tally& tally) {
  std::vector<std::vector<double>> latency(windows.count());
  if (windows.count() > 0) {
    for (size_t q = 0; q < tally.done_ns.size(); ++q) {
      latency[windows.Of(tally.done_ns[q])].push_back(tally.latency_us[q]);
    }
  }
  std::vector<double> per_rtt, p50_rtt, p99_rtt, cpu_rtt;
  std::vector<double> qps, p50_us, p99_us, cpu_us, rtt_us;
  for (size_t w : windows.Used()) {
    if (latency[w].empty()) continue;
    const double count = static_cast<double>(latency[w].size());
    const double rtt = windows.RttUs(w);
    qps.push_back(count / windows.Seconds(w));
    p50_us.push_back(bench::Percentile(latency[w], 0.5));
    p99_us.push_back(bench::Percentile(latency[w], 0.99));
    cpu_us.push_back(windows.CpuSeconds(w) * 1e6 / count);
    rtt_us.push_back(rtt);
    per_rtt.push_back(qps.back() * rtt / 1e6);
    p50_rtt.push_back(p50_us.back() / rtt);
    p99_rtt.push_back(p99_us.back() / rtt);
    cpu_rtt.push_back(cpu_us.back() / rtt);
  }
  return {Median(per_rtt), Median(p50_rtt), Median(p99_rtt),
          Median(cpu_rtt), Median(qps),     Median(p50_us),
          Median(p99_us),  Median(cpu_us),  Median(rtt_us)};
}

/// Reports a remote workload's measured phase: the end-to-end metrics
/// from the client's tally and the daemon's CPU and memory, the hit and
/// CSR cross-checks against the daemon's own counters, and what the
/// per-layer table needs.
void Report(const Phase& phase, const Tally& tally, const Remote& remote,
            const std::vector<Session*>& sessions, const RunConfig& config,
            Results* results, Observation* observed) {
  results->attempted += tally.queries;
  results->failed += tally.failed;
  std::vector<const SpanBuffer*> spans;
  for (const Session* s : sessions) {
    results->attempted += s->prefill_ops;
    results->failed += s->prefill_failed;
    for (const std::string& e : s->errors) results->check_failures.push_back(e);
    spans.push_back(&s->spans);
  }
  results->Check(phase.windows.status().ok(),
                 "window cut: " + phase.windows.status().ToString());
  if (!phase.before.ok() || !phase.after.ok()) {
    results->Check(false, "cannot scrape /metrics");
    return;
  }
  std::vector<double> startups = phase.windows.startup_seconds();
  startups.push_back(remote.daemon->startup_seconds());
  results->Add("setup_s", "s", Median(startups), startups.size());
  const WindowMedians m = Summarize(phase.windows, tally);
  results->Add("queries_per_rtt", "queries/rtt", m.queries_per_rtt,
               tally.queries);
  results->Add("query_p50_rtt", "rtt", m.p50_rtt, tally.queries);
  results->Add("query_p99_rtt", "rtt", m.p99_rtt, tally.queries);
  results->Add("cpu_per_query_rtt", "rtt", m.cpu_rtt_per_query, tally.queries);
  results->Add("hit_ratio", "ratio", tally.hit_ratio());
  results->Add("csr", "ratio", tally.csr());
  results->Add("rss_mib", "MiB", phase.peak_rss_mib);
  results->info.emplace_back(
      "absolute", JsonNumber(m.qps) + " queries/s, p50 " +
                      JsonNumber(m.p50_us) + " us, p99 " +
                      JsonNumber(m.p99_us) + " us, daemon CPU " +
                      JsonNumber(m.cpu_us_per_query) +
                      " us/query, loopback round trip " +
                      JsonNumber(m.rtt_us) + " us");
  results->info.emplace_back("windows", phase.windows.Describe());

  // The daemon must have counted the hits the client saw, up to its
  // known accounting races: a deduplicated EXECUTE whose leader's fill
  // was rejected is answered cache_hit=true but counted as a fresh
  // reference; a GET or EXECUTE whose payload vanished after its
  // reference counted as a hit is answered NotFound or as a fill. Only
  // the GET case is visible on the wire, so the EXECUTE case gets a
  // slack of one per 10 000 queries.
  const Scrape& before = *phase.before;
  const Scrape& after = *phase.after;
  auto delta = [&](const char* family) {
    return after.Sum(family) - before.Sum(family);
  };
  uint64_t raced = 0;
  for (const Session* s : sessions) raced += s->raced_gets;
  const double dedup = delta("watchman_facade_dedup_total");
  const double extra_hits =
      static_cast<double>(tally.hits) - delta("watchman_cache_hits_total");
  const double slack = std::ceil(static_cast<double>(tally.queries) / 1e4);
  results->Check(extra_hits >= -static_cast<double>(raced) - slack &&
                     extra_hits <= dedup + slack,
                 "client hits " + std::to_string(tally.hits) +
                     " vs daemon hits " +
                     JsonNumber(delta("watchman_cache_hits_total")));
  results->info.emplace_back("hit_count_differences",
                             "client - daemon " + JsonNumber(extra_hits) +
                                 ", dedup " + JsonNumber(dedup) +
                                 ", raced GETs " + std::to_string(raced));
  const double cost = delta("watchman_cache_cost_units_total");
  const double daemon_csr =
      cost > 0 ? delta("watchman_cache_cost_saved_units_total") / cost : 0.0;
  results->Check(std::fabs(daemon_csr - tally.csr()) <= 0.005,
                 "client CSR " + JsonNumber(tally.csr()) + " vs daemon " +
                     JsonNumber(daemon_csr));

  observed->valid = true;
  observed->before = before;
  observed->after = after;
  observed->queries = tally.queries;
  observed->spans = Summarize(spans);
  observed->trace_overhead_pct = tally.overhead_pct();
  observed->loopback_rtt_us = m.rtt_us;
  results->info.emplace_back("backend", remote.daemon->EffectiveBackend());
  if (config.traced && !config.chrome_trace.empty()) {
    results->Check(WriteChromeTrace(config.chrome_trace, spans),
                   "cannot write " + config.chrome_trace);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// The three workloads: closed loops over two connections.

namespace {

struct ClosedLoop {
  Benchmark benchmark;
  uint64_t capacity_bytes;
  /// Every distinct query is filled before the warm-up, so every GET
  /// hits.
  bool prefill;
  /// A third thread invalidates relations as the queries progress.
  bool refresh;
};

/// Issues an InvalidateRelation each time the workers have completed
/// another kRefreshEvery queries (from a seeded offset), alternating
/// orders and lineitem (TPC-D UF1 / UF2), until `stop`. Spacing
/// refreshes by queries rather than by time keeps hit ratio and CSR
/// independent of how fast the daemon answers; the refresh still runs
/// concurrently with the queries it falls between. It holds `quiet`
/// while it runs, so no window is cut under it.
void RefreshLoop(Session* session, uint64_t seed,
                 const std::atomic<uint64_t>& completed,
                 const std::atomic<bool>& stop, std::mutex* quiet) {
  Rng rng(seed);
  uint64_t due = rng.NextBounded(kRefreshEvery);
  uint32_t bit = kOrdersBit;
  while (!stop.load()) {
    if (completed.load() < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    std::lock_guard<std::mutex> lock(*quiet);
    session->Update(bit);
    bit = bit == kOrdersBit ? kLineitemBit : kOrdersBit;
    due += kRefreshEvery;
  }
}

/// Two worker threads, each on its own connection, replay the trace
/// closed loop, the events dealt round-robin (worker d replays d, d + 2,
/// ..., in a loop): the first 17 000 warm the cache, then the run is
/// measured for --seconds. Between windows both workers wait while the
/// loopback round trip is probed. With refreshes, the coherence oracle
/// judges every served payload against them.
void RunClosedLoop(const ClosedLoop& shape, const RunConfig& config,
                   Results* results, Observation* observed) {
  Remote remote;
  const Status setup =
      Setup(config, shape.benchmark,
            kWarmupEvents + (shape.prefill ? 0 : kTpcdMeasuredEvents),
            shape.capacity_bytes, 2, &remote);
  if (!setup.ok()) {
    results->Check(false, "setup: " + setup.ToString());
    return;
  }
  std::vector<std::unique_ptr<Session>> owned;
  std::vector<Session*> workers;
  for (uint32_t d = 0; d < 2; ++d) {
    owned.push_back(std::make_unique<Session>(&remote.input,
                                              remote.clients[d].get(), d,
                                              config.traced, shape.refresh));
    workers.push_back(owned.back().get());
  }
  Session refresher(&remote.input, remote.clients[0].get(), 2, config.traced,
                    false);
  const std::vector<uint32_t>& events = remote.input.events;
  if (shape.prefill) {
    std::vector<uint32_t> all(remote.input.queries.size());
    for (uint32_t q = 0; q < all.size(); ++q) all[q] = q;
    workers[0]->Prefill(all);
    StatusOr<WireStats> stats = remote.clients[0]->Stats();
    results->Check(
        stats.ok() && stats->entry_count == remote.input.queries.size(),
        "prefill left " +
            std::to_string(stats.ok() ? stats->entry_count : 0) + " of " +
            std::to_string(remote.input.queries.size()) + " sets cached");
  }

  // Replays events [begin, end) or, in the measured phase (`windows`
  // set), from `begin` until `stop_ns`.
  auto replay = [&](size_t begin, size_t end, Windows* windows,
                    int64_t stop_ns) {
    std::atomic<int> running{2};
    std::atomic<bool> stop{false};
    std::atomic<bool> cut{false};
    std::atomic<uint64_t> completed{0};
    std::mutex quiet;
    std::barrier<> both(2);
    RunOnThreads(windows != nullptr && shape.refresh ? 3 : 2, [&](int d) {
      if (d == 2) {
        RefreshLoop(&refresher, config.seed, completed, stop, &quiet);
        return;
      }
      Session& s = *workers[static_cast<size_t>(d)];
      for (size_t j = begin + static_cast<size_t>(d);
           j < end && NowNs() < stop_ns; j += 2) {
        s.Finish(s.Start(events[j % events.size()]));
        completed.fetch_add(1, std::memory_order_relaxed);
        if (windows == nullptr) continue;
        if (d == 0 && windows->Due()) cut.store(true);
        if (!cut.load()) continue;
        both.arrive_and_wait();  // neither worker has a query in flight
        if (d == 0) {
          std::lock_guard<std::mutex> lock(quiet);  // nor the refresher
          windows->Cut();
          cut.store(false);
        }
        both.arrive_and_wait();
      }
      if (windows != nullptr) both.arrive_and_drop();
      if (running.fetch_sub(1) == 1) stop.store(true);
    });
  };
  replay(0, kWarmupEvents, nullptr, INT64_MAX);
  const Tally warmup = TakeTally(workers);
  results->attempted += warmup.queries;
  results->failed += warmup.failed;

  Phase phase(remote.daemon.get(), remote.probe.get(),
              config.repeat_setup ? &remote.options : nullptr);
  replay(kWarmupEvents, SIZE_MAX, &phase.windows,
         NowNs() + static_cast<int64_t>(config.seconds * 1e9));
  phase.End();
  const Tally tally = TakeTally(workers);
  if (shape.prefill) {
    results->Check(tally.hits == tally.queries,
                   std::to_string(tally.queries - tally.hits) +
                       " GETs missed a cache that holds every set");
  }
  if (shape.refresh) {
    results->attempted += refresher.updates.size();
    results->failed += refresher.update_failed;
    results->Check(refresher.update_failed == 0,
                   std::to_string(refresher.update_failed) +
                       " refreshes failed");
    results->Check(!refresher.updates.empty(), "no refresh was issued");
    // Wrong answers are already among the failed queries.
    std::vector<Session*> all = workers;
    all.push_back(&refresher);
    const Verdict verdict = Judge(remote.input, all);
    results->failed += verdict.unknown_fills + verdict.stale_reads;
    results->Check(verdict.unknown_fills == 0,
                   std::to_string(verdict.unknown_fills) +
                       " served payloads name no fill of their query");
    results->Check(verdict.stale_reads == 0,
                   std::to_string(verdict.stale_reads) + " stale reads");
    observed->protocol_stale_fills = verdict.protocol_stale_fills;
    std::vector<double> update_us = refresher.update_us;
    observed->update_p50_us = bench::Percentile(update_us, 0.5);
    workers.push_back(&refresher);
  }
  Report(phase, tally, remote, workers, config, results, observed);
}

}  // namespace

void RunTpcdRemote(const RunConfig& config, Results* results,
                   Observation* observed) {
  RunClosedLoop({Benchmark::kTpcd,
                 PercentOf(DatabaseBytes(Benchmark::kTpcd), 1.0), false, false},
                config, results, observed);
}

void RunTpcdRefresh(const RunConfig& config, Results* results,
                    Observation* observed) {
  RunClosedLoop({Benchmark::kTpcd,
                 PercentOf(DatabaseBytes(Benchmark::kTpcd), 5.0), false, true},
                config, results, observed);
}

/// Every distinct Set Query set fits in 64 MiB: all hits.
void RunSetQueryHot(const RunConfig& config, Results* results,
                    Observation* observed) {
  RunClosedLoop({Benchmark::kSetQuery, 64ull << 20, true, false}, config,
                results, observed);
}

}  // namespace watchman::e2e
