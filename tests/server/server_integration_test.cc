// Client/server integration tests over a loopback socket: the server
// binds an ephemeral port (port 0) so parallel CI runs never collide,
// and the "Server...Concurrent..." tests run under TSan in CI.
//
// The whole suite is parameterized over the event backend (epoll and
// io_uring) so both IO loops face the same protocol-violation,
// half-close, timeout and concurrency scenarios. The io_uring
// instantiation skips itself on kernels that cannot run the backend.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "server/uring.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

/// A raw blocking loopback connection for protocol-violation tests the
/// client library cannot produce (it only encodes well-formed frames).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  void Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  /// Reads one response frame; empty StatusOr error on EOF.
  StatusOr<WireResponse> ReadResponse() {
    char chunk[8192];
    while (true) {
      std::string_view body;
      size_t frame_size = 0;
      auto extracted =
          ExtractFrame(buf_, kDefaultMaxFrameBytes, &body, &frame_size);
      if (!extracted.ok()) return extracted.status();
      if (*extracted) {
        auto response = DecodeResponse(body);
        buf_.erase(0, frame_size);
        return response;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Status::IOError("connection closed");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

std::string PayloadFor(const std::string& text) {
  return "payload(" + text + ")";
}

/// A local executor standing in for the client-side warehouse.
Watchman::Executor CountingExecutor(std::atomic<int>* executions,
                                    std::vector<std::string> relations = {}) {
  return [executions, relations](const std::string& text)
             -> StatusOr<Watchman::ExecutionResult> {
    executions->fetch_add(1);
    return Watchman::ExecutionResult{PayloadFor(text), 5000, relations};
  };
}

class ServerIntegrationTest : public testing::TestWithParam<ServerBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == ServerBackend::kIoUring && !Uring::KernelSupported()) {
      GTEST_SKIP() << "kernel cannot run the io_uring backend";
    }
  }

  /// Server options with the suite's backend applied; every server this
  /// suite starts -- fixture-owned or test-local -- goes through here
  /// so no scenario silently tests only epoll.
  WatchmanServer::Options BackendOptions() const {
    WatchmanServer::Options server_options;
    server_options.port = 0;  // ephemeral: parallel-safe in CI
    server_options.backend = GetParam();
    return server_options;
  }

  /// With `with_admin_port` the server also listens on an ephemeral
  /// admin port, readable back via server_->admin_port().
  void StartServer(size_t num_shards = 8, size_t num_workers = 8,
                   bool with_admin_port = false) {
    Watchman::Options options;
    options.capacity_bytes = 8 << 20;
    options.num_shards = num_shards;
    cache_ = std::make_unique<Watchman>(std::move(options),
                                        WatchmanServer::MissFillExecutor());
    WatchmanServer::Options server_options = BackendOptions();
    server_options.num_workers = num_workers;
    if (with_admin_port) server_options.admin_port = 0;
    server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
    if (with_admin_port) {
      ASSERT_NE(server_->admin_port(), 0);
    }
    // KernelSupported() passed, so a requested io_uring backend must
    // actually serve (a silent fallback here would shadow coverage).
    ASSERT_EQ(server_->effective_backend(), GetParam());
  }

  MultiplexedClient::Options ClientOptions() const {
    MultiplexedClient::Options options;
    options.port = server_->port();
    return options;
  }

  std::unique_ptr<MultiplexedClient> MakeClient() {
    auto client = MultiplexedClient::Connect(ClientOptions());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// Polls `fn` until true or ~2s pass (timer-driven server behavior).
  static bool Eventually(const std::function<bool()>& fn) {
    for (int i = 0; i < 200; ++i) {
      if (fn()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return fn();
  }

  std::unique_ptr<Watchman> cache_;
  std::unique_ptr<WatchmanServer> server_;
};

TEST_P(ServerIntegrationTest, PingOnEphemeralPort) {
  StartServer();
  auto client = MakeClient();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Ping().ok());  // connection is reusable
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

TEST_P(ServerIntegrationTest, RemoteHitServedFromCache) {
  StartServer();
  std::atomic<int> executions{0};
  auto remote = RemoteWatchman::Connect(ClientOptions(),
                                        CountingExecutor(&executions));
  ASSERT_TRUE(remote.ok());

  const std::string query = "select sum(profit) from orders, lineitem";
  for (int i = 0; i < 5; ++i) {
    auto result = (*remote)->Execute(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, PayloadFor(query));
  }
  // One client-side execution; the four repeats were remote cache hits.
  EXPECT_EQ(executions.load(), 1);
  EXPECT_TRUE(cache_->IsCached(query));
  const CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST_P(ServerIntegrationTest, MissWithoutFillReportsNotFound) {
  StartServer();
  auto client = MakeClient();
  auto probe = client->Get("select 1 from dual");
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kNotFound);
  // EXECUTE without a fill against a miss-fill daemon is also a miss.
  auto executed = client->Execute("select 1 from dual");
  ASSERT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().code(), StatusCode::kNotFound);
}

TEST_P(ServerIntegrationTest, MissFillPopulatesAndHitFlagFlips) {
  StartServer();
  auto client = MakeClient();
  const std::string query = "select o_orderkey from orders";
  auto filled = client->Execute(query, "the retrieved set", 9000,
                                {"orders"});
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  EXPECT_FALSE(filled->cache_hit);
  EXPECT_EQ(filled->payload, "the retrieved set");
  EXPECT_TRUE(cache_->IsCached(query));

  auto again = client->Execute(query, "ignored stale fill", 1, {});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  // The cached set wins over the second request's fill.
  EXPECT_EQ(again->payload, "the retrieved set");

  auto got = client->Get(query);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->cache_hit);
  EXPECT_EQ(got->payload, "the retrieved set");
}

TEST_P(ServerIntegrationTest, InvalidateRelationEvictsDependentSet) {
  StartServer();
  auto client = MakeClient();
  ASSERT_TRUE(client
                  ->Execute("select a from orders, lineitem", "set-a", 100,
                            {"orders", "lineitem"})
                  .ok());
  ASSERT_TRUE(client
                  ->Execute("select b from lineitem", "set-b", 100,
                            {"lineitem"})
                  .ok());
  ASSERT_TRUE(
      client->Execute("select c from region", "set-c", 100, {"region"}).ok());

  // The warehouse updated lineitem: both dependent sets must go.
  auto dropped = client->InvalidateRelation("lineitem");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 2u);
  EXPECT_EQ(cache_->invalidations(), 2u);

  EXPECT_EQ(client->Get("select a from orders, lineitem").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->Get("select b from lineitem").status().code(),
            StatusCode::kNotFound);
  auto untouched = client->Get("select c from region");
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(untouched->payload, "set-c");

  // Per-query invalidation over the wire.
  auto one = client->Invalidate("select c from region");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, 1u);
  EXPECT_FALSE(cache_->IsCached("select c from region"));
}

TEST_P(ServerIntegrationTest, StatsMatchTheLocalFacade) {
  StartServer();
  std::atomic<int> executions{0};
  auto remote = RemoteWatchman::Connect(ClientOptions(),
                                        CountingExecutor(&executions));
  ASSERT_TRUE(remote.ok());
  for (int i = 0; i < 3; ++i) {
    for (int q = 0; q < 4; ++q) {
      ASSERT_TRUE(
          (*remote)->Execute("select " + std::to_string(q) + " from nation")
              .ok());
    }
  }

  auto stats = (*remote)->Stats();
  ASSERT_TRUE(stats.ok());
  const CacheStats local = cache_->stats();
  EXPECT_EQ(stats->lookups, local.lookups);
  EXPECT_EQ(stats->lookups, 12u);  // one reference per remote Execute
  EXPECT_EQ(stats->hits, local.hits);
  EXPECT_EQ(stats->hits, 8u);
  EXPECT_EQ(stats->insertions, local.insertions);
  EXPECT_EQ(stats->cost_total, local.cost_total);
  EXPECT_EQ(stats->cost_saved, local.cost_saved);
  EXPECT_EQ(stats->used_bytes, cache_->used_bytes());
  EXPECT_EQ(stats->capacity_bytes, cache_->capacity_bytes());
  EXPECT_EQ(stats->entry_count, cache_->cached_set_count());
  EXPECT_EQ(stats->num_shards, cache_->num_shards());
  EXPECT_EQ(stats->policy_name, cache_->policy_name());
  EXPECT_DOUBLE_EQ(stats->hit_ratio(), local.hit_ratio());
  // v4 transport fields: the wire names the serving backend, and a
  // fresh server has no compaction yet.
  EXPECT_EQ(stats->backend, ServerBackendName(GetParam()));
  EXPECT_EQ(stats->compactions, 0u);
  EXPECT_EQ(stats->last_compaction_age_ms, WireStats::kNeverCompacted);

  // Per-op counters: 4 misses probe+fill, 8 hits probe only.
  bool saw_get = false;
  bool saw_execute = false;
  for (const WireOpMetrics& op : stats->per_op) {
    if (op.op == static_cast<uint8_t>(OpCode::kGet)) {
      saw_get = true;
      EXPECT_EQ(op.requests, 12u);
      EXPECT_EQ(op.errors, 0u);  // NotFound probes are not errors
      EXPECT_EQ(op.latency_count, 12u);
      EXPECT_GE(op.latency_max_us, op.latency_min_us);
    } else if (op.op == static_cast<uint8_t>(OpCode::kExecute)) {
      saw_execute = true;
      EXPECT_EQ(op.requests, 4u);
    }
  }
  EXPECT_TRUE(saw_get);
  EXPECT_TRUE(saw_execute);
}

TEST_P(ServerIntegrationTest, BatchedRequestsOnOneConnection) {
  StartServer();
  auto client = MakeClient();
  // Many round trips on a single connection interleaving every op.
  for (int i = 0; i < 50; ++i) {
    const std::string query = "select " + std::to_string(i % 7);
    ASSERT_TRUE(client->Ping().ok());
    ASSERT_TRUE(client->Execute(query, PayloadFor(query), 100, {"r"}).ok());
    auto got = client->Get(query);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->payload, PayloadFor(query));
  }
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  // 50 x (ping + execute + get); the stats request itself snapshots
  // before it is counted.
  EXPECT_EQ(stats->requests_served, 150u);
  EXPECT_EQ(stats->frames_rejected, 0u);
  EXPECT_EQ(stats->connections_accepted, 1u);
}

TEST_P(ServerIntegrationTest, BlockingCheapOpsTakeTheInlinePath) {
  // A blocking client on an otherwise idle server: every frame arrives
  // alone with nothing in flight and an empty ready-queue, so each
  // PING/GET/STATS must be answered inline on the IO thread -- and so
  // must the miss-fill EXECUTE, because the facade runs
  // MissFillExecutor() and the frame is the last one buffered.
  StartServer();
  auto client = MakeClient();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(client->Ping().ok());
  EXPECT_EQ(server_->inline_dispatched(), 10u);
  ASSERT_EQ(client->Get("select 1").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(client->Stats().ok());
  EXPECT_EQ(server_->inline_dispatched(), 12u);
  ASSERT_TRUE(client->Execute("select 1", "fill", 10, {}).ok());
  EXPECT_EQ(server_->inline_dispatched(), 13u);
  EXPECT_EQ(server_->StatsSnapshot().requests_served, 13u);
  EXPECT_TRUE(cache_->IsCached("select 1"));
}

TEST_P(ServerIntegrationTest, WarehouseExecutorNeverRunsOnTheIoThread) {
  // A facade built with a real executor -- here one that blocks on a
  // latch -- must keep EXECUTE on the worker pool even when the frame
  // carries a fill and would otherwise qualify for the inline path: a
  // slow warehouse call on the IO thread would stall every connection.
  std::mutex latch_mu;
  std::condition_variable latch_cv;
  bool released = false;
  std::atomic<bool> entered{false};
  Watchman::Options options;
  options.capacity_bytes = 8 << 20;
  Watchman cache(std::move(options),
                 [&](const std::string& text)
                     -> StatusOr<Watchman::ExecutionResult> {
                   entered.store(true);
                   std::unique_lock<std::mutex> lock(latch_mu);
                   latch_cv.wait(lock, [&] { return released; });
                   return Watchman::ExecutionResult{PayloadFor(text), 10, {}};
                 });
  WatchmanServer server(&cache, BackendOptions());
  ASSERT_TRUE(server.Start().ok());
  MultiplexedClient::Options client_options;
  client_options.port = server.port();
  auto slow = MultiplexedClient::Connect(client_options);
  auto fast = MultiplexedClient::Connect(client_options);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());

  const std::string query = "select blocked from warehouse";
  StatusOr<MultiplexedClient::FetchResult> result =
      Status::Internal("not answered");
  std::thread caller([&] {
    result = (*slow)->Execute(query, "client fill", 10, {});
  });
  // No ASSERT before the join below: the caller thread must be joined.
  EXPECT_TRUE(Eventually([&] { return entered.load(); }));
  // The executor is blocked; the IO thread must still answer others.
  EXPECT_TRUE((*fast)->Ping().ok());
  EXPECT_EQ(server.inline_dispatched(), 1u);  // the PING only
  {
    std::lock_guard<std::mutex> lock(latch_mu);
    released = true;
  }
  latch_cv.notify_all();
  caller.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->payload, PayloadFor(query));  // the warehouse's answer
  EXPECT_EQ(server.inline_dispatched(), 1u);
  server.Stop();
}

TEST_P(ServerIntegrationTest, InlineDispatchDisabledByOption) {
  Watchman::Options options;
  options.capacity_bytes = 8 << 20;
  Watchman cache(std::move(options), WatchmanServer::MissFillExecutor());
  WatchmanServer::Options server_options = BackendOptions();
  server_options.inline_dispatch = false;
  WatchmanServer server(&cache, server_options);
  ASSERT_TRUE(server.Start().ok());

  MultiplexedClient::Options client_options;
  client_options.port = server.port();
  auto client = MultiplexedClient::Connect(client_options);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE((*client)->Ping().ok());
  EXPECT_EQ(server.inline_dispatched(), 0u);
  EXPECT_EQ(server.StatsSnapshot().requests_served, 5u);
  server.Stop();
}

TEST_P(ServerIntegrationTest, InlineFloodCannotStarveQueuedWork) {
  // A pipelined burst of cheap frames around an EXECUTE, against one
  // worker and a tiny inline burst budget: the budget forces most
  // pings onto the worker path, and every frame -- the EXECUTE
  // included -- must still be answered. This is the starvation guard:
  // inline dispatch may only serve frames while the ready-queue is
  // empty, and only max_inline_burst of them per tick.
  Watchman::Options options;
  options.capacity_bytes = 8 << 20;
  Watchman cache(std::move(options), WatchmanServer::MissFillExecutor());
  WatchmanServer::Options server_options = BackendOptions();
  server_options.num_workers = 1;
  server_options.max_inline_burst = 2;
  WatchmanServer server(&cache, server_options);
  ASSERT_TRUE(server.Start().ok());

  constexpr uint64_t kPingsBefore = 40;
  constexpr uint64_t kPingsAfter = 40;
  const uint64_t execute_id = kPingsBefore + 1;
  std::string stream;
  uint64_t next_id = 1;
  for (uint64_t i = 0; i < kPingsBefore; ++i) {
    WireRequest ping;
    ping.op = OpCode::kPing;
    ping.request_id = next_id++;
    AppendRequest(ping, &stream);
  }
  WireRequest execute;
  execute.op = OpCode::kExecute;
  execute.request_id = next_id++;
  execute.query_text = "select starved from floods";
  execute.has_fill = true;
  execute.fill_payload = "answered anyway";
  execute.fill_cost = 100;
  AppendRequest(execute, &stream);
  for (uint64_t i = 0; i < kPingsAfter; ++i) {
    WireRequest ping;
    ping.op = OpCode::kPing;
    ping.request_id = next_id++;
    AppendRequest(ping, &stream);
  }

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(stream);
  const uint64_t total = next_id - 1;
  std::vector<bool> answered(total + 1, false);
  for (uint64_t i = 0; i < total; ++i) {
    auto response = conn.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_GE(response->request_id, 1u);
    ASSERT_LE(response->request_id, total);
    EXPECT_FALSE(answered[response->request_id]) << response->request_id;
    answered[response->request_id] = true;
    EXPECT_EQ(response->code, StatusCode::kOk);
    if (response->request_id == execute_id) {
      EXPECT_EQ(response->op, OpCode::kExecute);
      EXPECT_EQ(response->payload, "answered anyway");
    }
  }
  for (uint64_t id = 1; id <= total; ++id) {
    EXPECT_TRUE(answered[id]) << "request " << id << " never answered";
  }
  EXPECT_TRUE(cache.IsCached("select starved from floods"));
  server.Stop();
}

TEST_P(ServerIntegrationTest, InlineExecuteFloodCannotStarveQueuedWork) {
  // The EXECUTE-frame variant of the flood above: a pipelined burst of
  // miss-fill EXECUTEs around a PING, one worker, a tiny inline burst
  // budget. Miss-fill EXECUTEs qualify for the inline path, but only as
  // the last complete frame buffered, so the burst must drain through
  // the worker pool -- every frame answered with its own fill, every
  // set cached.
  Watchman::Options options;
  options.capacity_bytes = 8 << 20;
  Watchman cache(std::move(options), WatchmanServer::MissFillExecutor());
  WatchmanServer::Options server_options = BackendOptions();
  server_options.num_workers = 1;
  server_options.max_inline_burst = 2;
  WatchmanServer server(&cache, server_options);
  ASSERT_TRUE(server.Start().ok());

  constexpr uint64_t kExecutesBefore = 40;
  constexpr uint64_t kExecutesAfter = 40;
  const uint64_t ping_id = kExecutesBefore + 1;
  const uint64_t total = kExecutesBefore + 1 + kExecutesAfter;
  auto query_for = [](uint64_t id) {
    return "select flood " + std::to_string(id);
  };
  std::string stream;
  for (uint64_t id = 1; id <= total; ++id) {
    WireRequest request;
    request.request_id = id;
    if (id == ping_id) {
      request.op = OpCode::kPing;
    } else {
      request.op = OpCode::kExecute;
      request.query_text = query_for(id);
      request.has_fill = true;
      request.fill_payload = PayloadFor(request.query_text);
      request.fill_cost = 100;
    }
    AppendRequest(request, &stream);
  }

  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(stream);
  std::vector<bool> answered(total + 1, false);
  for (uint64_t i = 0; i < total; ++i) {
    auto response = conn.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_GE(response->request_id, 1u);
    ASSERT_LE(response->request_id, total);
    EXPECT_FALSE(answered[response->request_id]) << response->request_id;
    answered[response->request_id] = true;
    EXPECT_EQ(response->code, StatusCode::kOk) << response->message;
    if (response->request_id == ping_id) {
      EXPECT_EQ(response->op, OpCode::kPing);
    } else {
      EXPECT_EQ(response->op, OpCode::kExecute);
      EXPECT_EQ(response->payload,
                PayloadFor(query_for(response->request_id)));
    }
  }
  for (uint64_t id = 1; id <= total; ++id) {
    EXPECT_TRUE(answered[id]) << "request " << id << " never answered";
    if (id != ping_id) {
      EXPECT_TRUE(cache.IsCached(query_for(id))) << id;
    }
  }
  server.Stop();
}

TEST_P(ServerIntegrationTest, CompactOverTheWire) {
  StartServer();
  auto client = MakeClient();
  ASSERT_TRUE(client->Execute("select a from t", "set-a", 100, {"t"}).ok());
  ASSERT_TRUE(client->Compact().ok());
  EXPECT_EQ(server_->compactions(), 1u);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->compactions, 1u);
  EXPECT_NE(stats->last_compaction_age_ms, WireStats::kNeverCompacted);
  EXPECT_LT(stats->last_compaction_age_ms, 60000u);
}

TEST_P(ServerIntegrationTest, IdleCompactionRunsOncePerIdlePeriod) {
  Watchman::Options options;
  options.capacity_bytes = 8 << 20;
  Watchman cache(std::move(options), WatchmanServer::MissFillExecutor());
  WatchmanServer::Options server_options = BackendOptions();
  server_options.poll_interval_ms = 10;
  server_options.compact_idle_ms = 50;
  WatchmanServer server(&cache, server_options);
  ASSERT_TRUE(server.Start().ok());

  // The idle timer fires once after startup quiesces...
  ASSERT_TRUE(Eventually([&] { return server.compactions() >= 1; }));
  const uint64_t after_start = server.compactions();
  // ...and does NOT free-run while the daemon stays idle.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(server.compactions(), after_start);

  // New traffic re-arms it: one more pass once idle again.
  MultiplexedClient::Options client_options;
  client_options.port = server.port();
  auto client = MultiplexedClient::Connect(client_options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());
  ASSERT_TRUE(
      Eventually([&] { return server.compactions() == after_start + 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(server.compactions(), after_start + 1);
  server.Stop();
}

TEST_P(ServerIntegrationTest, ConcurrentClientsShareTheCache) {
  StartServer(/*num_shards=*/8, /*num_workers=*/8);
  constexpr int kThreads = 6;
  constexpr int kIterations = 40;
  constexpr int kQueries = 10;
  std::atomic<int> errors{0};
  std::atomic<int> wrong_payloads{0};
  std::atomic<int> executions{0};
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto remote = RemoteWatchman::Connect(ClientOptions(),
                                            CountingExecutor(&executions));
      if (!remote.ok()) {
        errors.fetch_add(1);
        start.arrive_and_wait();
        return;
      }
      start.arrive_and_wait();
      for (int i = 0; i < kIterations; ++i) {
        const std::string query =
            "select x from t where k = " +
            std::to_string((i + t) % kQueries);
        auto result = (*remote)->Execute(query);
        if (!result.ok()) {
          errors.fetch_add(1);
        } else if (*result != PayloadFor(query)) {
          wrong_payloads.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong_payloads.load(), 0);
  // Every remote Execute recorded exactly one reference, like a local
  // facade call (no invalidations ran to disturb the accounting).
  const CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.lookups, static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_GE(static_cast<int64_t>(stats.hits),
            static_cast<int64_t>(kThreads * kIterations) - executions.load());
  EXPECT_TRUE(cache_->cache().CheckInvariants().ok());
}

TEST_P(ServerIntegrationTest, ConcurrentClientsWithInvalidationChaos) {
  StartServer(/*num_shards=*/8, /*num_workers=*/8);
  constexpr int kThreads = 4;
  constexpr int kIterations = 30;
  std::atomic<int> transport_errors{0};
  std::atomic<int> executions{0};
  std::barrier start(kThreads + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto remote = RemoteWatchman::Connect(
          ClientOptions(),
          CountingExecutor(&executions, {"lineitem", "orders"}));
      if (!remote.ok()) {
        transport_errors.fetch_add(1);
        start.arrive_and_wait();
        return;
      }
      start.arrive_and_wait();
      for (int i = 0; i < kIterations; ++i) {
        const std::string query =
            "select agg from lineitem where k = " + std::to_string(i % 5);
        auto result = (*remote)->Execute(query);
        if (!result.ok()) transport_errors.fetch_add(1);
      }
    });
  }
  std::thread invalidator([&] {
    auto client = MultiplexedClient::Connect(ClientOptions());
    if (!client.ok()) {
      transport_errors.fetch_add(1);
      start.arrive_and_wait();
      return;
    }
    start.arrive_and_wait();
    for (int i = 0; i < 20; ++i) {
      if (!(*client)->InvalidateRelation("lineitem").ok()) {
        transport_errors.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();
  invalidator.join();

  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_TRUE(cache_->cache().CheckInvariants().ok());
}

TEST_P(ServerIntegrationTest, OversizedFillRejectedAsCorruption) {
  StartServer();
  // Re-start a second server with a tiny frame limit.
  WatchmanServer::Options tiny = BackendOptions();
  tiny.num_workers = 1;
  tiny.max_frame_bytes = 1024;
  WatchmanServer small_server(cache_.get(), tiny);
  ASSERT_TRUE(small_server.Start().ok());

  MultiplexedClient::Options options;
  options.port = small_server.port();
  options.connect_attempts = 1;
  auto client = MultiplexedClient::Connect(options);
  ASSERT_TRUE(client.ok());
  auto result = (*client)->Execute("q", std::string(100000, 'x'), 1, {});
  // The daemon answers with a corruption error (and drops the
  // connection) or the write fails outright -- either way, no success.
  EXPECT_FALSE(result.ok());
  small_server.Stop();
}

TEST_P(ServerIntegrationTest, DecodeErrorEchoesRequestOpcodeAndId) {
  // Regression: a request whose body fails to decode used to be
  // answered with a default-constructed response whose op was kPing,
  // so the client reported "response op mismatch: sent get, got ping"
  // (Internal) and the daemon's real Corruption message was masked.
  // The error response must echo the request's (op, id) whenever the
  // prologue decoded.
  StartServer();
  WireRequest request;
  request.op = OpCode::kGet;
  request.request_id = 4242;
  request.query_text = "select * from nation";
  std::string frame = EncodeRequest(request);
  // Truncate the body mid-string and patch the length prefix so the
  // FRAME is well-formed but the REQUEST is not.
  frame.resize(frame.size() - 5);
  const uint32_t body_len = static_cast<uint32_t>(frame.size() - 4);
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<size_t>(i)] =
        static_cast<char>((body_len >> (8 * i)) & 0xff);
  }

  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  conn.Send(frame);
  auto response = conn.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->op, OpCode::kGet);
  EXPECT_EQ(response->request_id, 4242u);
  EXPECT_EQ(response->code, StatusCode::kCorruption);
  EXPECT_EQ(server_->StatsSnapshot().frames_rejected, 1u);
}

TEST_P(ServerIntegrationTest, CorruptFrameMidStreamAnswersEarlierFrames) {
  // A valid PING pipelined ahead of a garbage length prefix: the ping
  // must be answered AND the framing error reported with the daemon's
  // Corruption status before the connection closes. Responses may
  // arrive in either order (v3 ids disambiguate).
  StartServer();
  WireRequest ping;
  ping.op = OpCode::kPing;
  ping.request_id = 7;
  std::string stream = EncodeRequest(ping);
  stream += std::string("\xff\xff\xff\xff garbage", 12);  // 4 GiB "frame"

  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  conn.Send(stream);
  bool saw_ping = false;
  bool saw_corruption = false;
  for (int i = 0; i < 2; ++i) {
    auto response = conn.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->request_id == 7) {
      EXPECT_EQ(response->op, OpCode::kPing);
      EXPECT_EQ(response->code, StatusCode::kOk);
      saw_ping = true;
    } else {
      EXPECT_EQ(response->code, StatusCode::kCorruption);
      saw_corruption = true;
    }
  }
  EXPECT_TRUE(saw_ping);
  EXPECT_TRUE(saw_corruption);
  // After both responses the daemon closes cleanly (no reset: it
  // half-closes and drains first, so the error always arrives).
  auto eof = conn.ReadResponse();
  EXPECT_FALSE(eof.ok());
}

TEST_P(ServerIntegrationTest, OversizedFrameSurfacesCorruptionAtTheClient) {
  // Acceptance: through the real client, a frame the daemon rejects
  // must surface the daemon's Corruption message -- NOT an
  // "op mismatch" Internal error, and not a bare connection reset.
  WatchmanServer::Options tiny = BackendOptions();
  tiny.num_workers = 1;
  tiny.max_frame_bytes = 1024;
  Watchman::Options cache_options;
  cache_options.capacity_bytes = 8 << 20;
  Watchman small_cache(std::move(cache_options),
                       WatchmanServer::MissFillExecutor());
  WatchmanServer small_server(&small_cache, tiny);
  ASSERT_TRUE(small_server.Start().ok());

  MultiplexedClient::Options options;
  options.port = small_server.port();
  options.connect_attempts = 1;
  auto client = MultiplexedClient::Connect(options);
  ASSERT_TRUE(client.ok());
  auto result = (*client)->Execute("q", std::string(100000, 'x'), 1, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("exceeds"), std::string::npos)
      << result.status().ToString();
  small_server.Stop();
}

TEST_P(ServerIntegrationTest, HalfClosePipelinedRequestsAllAnswered) {
  // A peer that pipelines N requests and immediately shuts down its
  // write side must still receive all N responses (the event loop
  // parses buffered frames after EOF and closes only once the output
  // drains).
  StartServer();
  std::string stream;
  constexpr uint64_t kPings = 17;
  for (uint64_t i = 1; i <= kPings; ++i) {
    WireRequest ping;
    ping.op = OpCode::kPing;
    ping.request_id = i;
    AppendRequest(ping, &stream);
  }
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  conn.Send(stream);
  conn.ShutdownWrite();
  uint64_t answered = 0;
  for (uint64_t i = 0; i < kPings; ++i) {
    auto response = conn.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kOk);
    ++answered;
  }
  EXPECT_EQ(answered, kPings);
  auto eof = conn.ReadResponse();
  EXPECT_FALSE(eof.ok());
}

TEST_P(ServerIntegrationTest, IoTimeoutReapsStalledConnection) {
  // A connection stuck mid-frame (length prefix promises more bytes
  // that never come) is closed once io_timeout_ms passes without
  // progress; a healthy idle connection on the same server is NOT.
  WatchmanServer::Options server_options = BackendOptions();
  server_options.io_timeout_ms = 200;
  server_options.poll_interval_ms = 20;
  Watchman::Options cache_options;
  cache_options.capacity_bytes = 8 << 20;
  Watchman cache(std::move(cache_options),
                 WatchmanServer::MissFillExecutor());
  WatchmanServer server(&cache, server_options);
  ASSERT_TRUE(server.Start().ok());

  RawConn idle(server.port());
  RawConn stuck(server.port());
  ASSERT_TRUE(idle.connected());
  ASSERT_TRUE(stuck.connected());
  // Half a frame: 4-byte prefix promising 100 bytes, only 3 sent.
  std::string half_frame("\x64", 1);
  half_frame.append(3, '\0');
  half_frame += "abc";
  stuck.Send(half_frame);
  // The stalled connection must be reaped...
  auto reaped = stuck.ReadResponse();
  EXPECT_FALSE(reaped.ok());
  // ...while the idle one still works.
  WireRequest ping;
  ping.op = OpCode::kPing;
  ping.request_id = 1;
  idle.Send(EncodeRequest(ping));
  auto pong = idle.ReadResponse();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->code, StatusCode::kOk);
  server.Stop();
}

TEST_P(ServerIntegrationTest, GracefulShutdownStopsServing) {
  StartServer(/*num_shards=*/8, /*num_workers=*/8, /*with_admin_port=*/true);
  auto client = MakeClient();
  ASSERT_TRUE(client->Ping().ok());
  const uint16_t admin_port = server_->admin_port();
  RawConn admin(admin_port);
  ASSERT_TRUE(admin.connected());
  server_->Stop();
  EXPECT_FALSE(server_->running());

  // Both ports refuse connections the moment Stop() returns -- on
  // io_uring too, where an armed multishot accept outlives close().
  MultiplexedClient::Options options = ClientOptions();
  options.connect_attempts = 1;
  auto failed = MultiplexedClient::Connect(options);
  EXPECT_FALSE(failed.ok());
  RawConn refused(admin_port);
  EXPECT_FALSE(refused.connected());
  // Stop() is idempotent.
  server_->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ServerIntegrationTest,
    testing::Values(ServerBackend::kEpoll, ServerBackend::kIoUring),
    [](const testing::TestParamInfo<ServerBackend>& info) {
      return std::string(ServerBackendName(info.param));
    });

// ---- backend selection / fallback (not parameterized) ----

TEST(ServerBackendTest, ParseNamesRoundTrip) {
  ServerBackend backend = ServerBackend::kAuto;
  EXPECT_TRUE(ParseServerBackend("epoll", &backend));
  EXPECT_EQ(backend, ServerBackend::kEpoll);
  EXPECT_TRUE(ParseServerBackend("io_uring", &backend));
  EXPECT_EQ(backend, ServerBackend::kIoUring);
  EXPECT_TRUE(ParseServerBackend("auto", &backend));
  EXPECT_EQ(backend, ServerBackend::kAuto);
  EXPECT_TRUE(ParseServerBackend("uring", &backend));  // accepted alias
  EXPECT_EQ(backend, ServerBackend::kIoUring);
  EXPECT_FALSE(ParseServerBackend("epol", &backend));
  EXPECT_FALSE(ParseServerBackend("", &backend));
  EXPECT_STREQ(ServerBackendName(ServerBackend::kEpoll), "epoll");
  EXPECT_STREQ(ServerBackendName(ServerBackend::kIoUring), "io_uring");
  EXPECT_STREQ(ServerBackendName(ServerBackend::kAuto), "auto");
}

class BackendFallbackTest : public testing::TestWithParam<ServerBackend> {};

TEST_P(BackendFallbackTest, FallsBackToEpollAndStillServes) {
  // Regression for the fallback path: a kernel without io_uring must
  // not fail Start() -- both `io_uring` (with a logged warning) and
  // `auto` (silently) serve on epoll. simulate_io_uring_unavailable
  // makes the scenario deterministic on any kernel.
  Watchman::Options options;
  options.capacity_bytes = 8 << 20;
  Watchman cache(std::move(options), WatchmanServer::MissFillExecutor());
  WatchmanServer::Options server_options;
  server_options.port = 0;
  server_options.backend = GetParam();
  server_options.simulate_io_uring_unavailable = true;
  WatchmanServer server(&cache, server_options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.effective_backend(), ServerBackend::kEpoll);
  EXPECT_EQ(server.StatsSnapshot().backend, std::string("epoll"));

  MultiplexedClient::Options client_options;
  client_options.port = server.port();
  auto client = MultiplexedClient::Connect(client_options);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Requested, BackendFallbackTest,
    testing::Values(ServerBackend::kIoUring, ServerBackend::kAuto),
    [](const testing::TestParamInfo<ServerBackend>& info) {
      return std::string(ServerBackendName(info.param));
    });

}  // namespace
}  // namespace watchman
