// MultiplexedClient <-> event-loop server integration: one connection
// shared by many threads, out-of-order response routing by request id,
// pipelined writes, partial-write resumption under a tiny SO_SNDBUF,
// Await deadlines, the leader/followers read role (the client owns no
// thread; awaiting threads take turns reading the socket), and the
// redial after a daemon restart. The suite name contains "Server" so
// the concurrency-heavy tests run under the CI TSan job's *Server*
// filter.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

std::string PayloadFor(const std::string& text) {
  return "payload(" + text + ")";
}

/// Entries of a /proc/self directory right now.
size_t CountEntries(const char* dir) {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++count;
  }
  return count;
}

/// Threads of this process right now.
size_t ThreadCount() { return CountEntries("/proc/self/task"); }

/// A warehouse executor that answers queries starting with "select held"
/// only once the test releases them, so the daemon delays exactly those
/// responses; every other query is answered at once.
class LatchedWarehouse {
 public:
  Watchman::Executor Executor() {
    return [this](const std::string& text)
               -> StatusOr<Watchman::ExecutionResult> {
      if (text.rfind("select held", 0) == 0) {
        std::unique_lock<std::mutex> lock(mu_);
        ++held_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return all_released_ || released_.count(text); });
      }
      return Watchman::ExecutionResult{PayloadFor(text), 100, {}};
    };
  }

  /// Blocks until `n` held queries have entered the executor.
  void AwaitHeld(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_ >= n; });
  }

  void Release(const std::string& text) {
    std::lock_guard<std::mutex> lock(mu_);
    released_.insert(text);
    cv_.notify_all();
  }

  void ReleaseAll() {
    std::lock_guard<std::mutex> lock(mu_);
    all_released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int held_ = 0;
  bool all_released_ = false;
  std::set<std::string> released_;
};

class MultiplexedClientServerTest : public testing::Test {
 protected:
  void StartServer(
      WatchmanServer::Options server_options = {},
      Watchman::Executor executor = WatchmanServer::MissFillExecutor()) {
    Watchman::Options options;
    options.capacity_bytes = 64 << 20;
    options.num_shards = 8;
    cache_ = std::make_unique<Watchman>(std::move(options),
                                        std::move(executor));
    server_options.port = 0;  // ephemeral: parallel-safe in CI
    server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
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

  std::unique_ptr<Watchman> cache_;
  std::unique_ptr<WatchmanServer> server_;
};

TEST_F(MultiplexedClientServerTest, BlockingOpsShareOneConnection) {
  StartServer();
  auto client = MakeClient();
  EXPECT_TRUE(client->Ping().ok());

  const std::string query = "select sum(profit) from orders";
  auto filled = client->Execute(query, PayloadFor(query), 9000, {"orders"});
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  EXPECT_FALSE(filled->cache_hit);

  auto got = client->Get(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->cache_hit);
  EXPECT_EQ(got->payload, PayloadFor(query));

  auto miss = client->Get("select nothing");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);

  auto dropped = client->InvalidateRelation("orders");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 1u);

  auto one = client->Invalidate(query);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, 0u);  // already invalidated

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->connections_accepted, 1u);
  EXPECT_GE(stats->requests_served, 5u);
}

TEST_F(MultiplexedClientServerTest, OutOfOrderAwaitRoutesResponsesById) {
  StartServer();
  auto client = MakeClient();
  constexpr int kQueries = 24;
  for (int i = 0; i < kQueries; ++i) {
    const std::string query = "select " + std::to_string(i);
    ASSERT_TRUE(
        client->Execute(query, PayloadFor(query), 100, {"r"}).ok());
  }
  // Pipeline every GET before awaiting any, then await in REVERSE
  // issue order: each response must still land on its own ticket.
  std::vector<MultiplexedClient::Ticket> tickets;
  for (int i = 0; i < kQueries; ++i) {
    auto ticket = client->StartGet("select " + std::to_string(i));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (int i = kQueries - 1; i >= 0; --i) {
    auto response = client->Await(tickets[static_cast<size_t>(i)]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kOk) << i;
    EXPECT_EQ(response->payload, PayloadFor("select " + std::to_string(i)))
        << i;
  }
  // A ticket can be awaited only once.
  auto again = client->Await(tickets[0]);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MultiplexedClientServerTest,
       ConcurrentThreadsOnOneConnectionRouteToIssuer) {
  StartServer();
  constexpr int kThreads = 8;
  constexpr int kIterations = 150;
  constexpr int kQueriesPerThread = 5;
  auto client = MakeClient();
  // Prefill thread-distinct queries over the same connection.
  for (int t = 0; t < kThreads; ++t) {
    for (int q = 0; q < kQueriesPerThread; ++q) {
      const std::string query =
          "select t" + std::to_string(t) + " q" + std::to_string(q);
      ASSERT_TRUE(
          client->Execute(query, PayloadFor(query), 100, {"rel"}).ok());
    }
  }
  EXPECT_EQ(server_->connections_accepted(), 1u);

  std::atomic<int> errors{0};
  std::atomic<int> wrong_payloads{0};
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kIterations; ++i) {
        const std::string query = "select t" + std::to_string(t) + " q" +
                                  std::to_string(i % kQueriesPerThread);
        auto got = client->Get(query);
        if (!got.ok()) {
          errors.fetch_add(1);
        } else if (got->payload != PayloadFor(query)) {
          // A routing bug would hand this thread another thread's
          // response; the thread-distinct payload catches it.
          wrong_payloads.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong_payloads.load(), 0);
  EXPECT_EQ(server_->connections_accepted(), 1u);
  const CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_TRUE(cache_->cache().CheckInvariants().ok());
}

TEST_F(MultiplexedClientServerTest, ConnectStartsNoThread) {
  StartServer();
  const size_t before = ThreadCount();
  auto client = MakeClient();
  EXPECT_EQ(ThreadCount(), before);
  // Nor does a round trip: the awaiting thread reads its own response.
  ASSERT_TRUE(client->Ping().ok());
  auto ticket = client->StartPing();
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(client->Await(*ticket).ok());
  EXPECT_EQ(ThreadCount(), before);
}

TEST_F(MultiplexedClientServerTest,
       ThreeThreadsShareOneConnectionWithoutLostWakeups) {
  // Three threads x 10 000 blocking GETs on one connection: the read
  // role passes between them thousands of times. A lost wake-up -- a
  // response nobody reads, or a follower nobody promotes -- would
  // surface as a deadline error; a routing slip as a wrong payload.
  StartServer();
  MultiplexedClient::Options options = ClientOptions();
  options.io_timeout_ms = 10000;
  auto connected = MultiplexedClient::Connect(options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<MultiplexedClient> client = std::move(connected).value();
  constexpr int kThreads = 3;
  constexpr int kIterations = 10000;
  constexpr int kQueriesPerThread = 4;
  for (int t = 0; t < kThreads; ++t) {
    for (int q = 0; q < kQueriesPerThread; ++q) {
      const std::string query =
          "select t" + std::to_string(t) + " q" + std::to_string(q);
      ASSERT_TRUE(client->Execute(query, PayloadFor(query), 100, {}).ok());
    }
  }
  std::atomic<int> errors{0};
  std::atomic<int> wrong_payloads{0};
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kIterations; ++i) {
        const std::string query = "select t" + std::to_string(t) + " q" +
                                  std::to_string(i % kQueriesPerThread);
        auto got = client->Get(query);
        if (!got.ok()) {
          errors.fetch_add(1);
        } else if (got->payload != PayloadFor(query)) {
          wrong_payloads.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong_payloads.load(), 0);
  EXPECT_EQ(server_->connections_accepted(), 1u);
  EXPECT_EQ(cache_->stats().hits,
            static_cast<uint64_t>(kThreads * kIterations));
}

TEST_F(MultiplexedClientServerTest, DelayedResponseDoesNotStallOtherThreads) {
  // One thread awaits a response the daemon holds back (a refresh
  // stuck in the warehouse) while another completes 1 000 round trips
  // on the same connection: whoever holds the read role routes the
  // fast responses, so the slow call delays nobody else.
  LatchedWarehouse warehouse;
  WatchmanServer::Options server_options;
  server_options.num_workers = 4;
  StartServer(server_options, warehouse.Executor());
  MultiplexedClient::Options options = ClientOptions();
  options.io_timeout_ms = 10000;
  auto connected = MultiplexedClient::Connect(options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<MultiplexedClient> client = std::move(connected).value();
  const std::string fast_query = "select fast from cached";
  ASSERT_TRUE(client->Execute(fast_query).ok());  // cached from now on

  const std::string slow_query = "select held refresh";
  std::atomic<bool> slow_done{false};
  StatusOr<MultiplexedClient::FetchResult> slow =
      Status::Internal("not answered");
  std::thread slow_thread([&] {
    slow = client->Execute(slow_query);
    slow_done.store(true);
  });
  warehouse.AwaitHeld(1);
  int fast_errors = 0;
  for (int i = 0; i < 1000; ++i) {
    auto got = client->Get(fast_query);
    if (!got.ok() || got->payload != PayloadFor(fast_query)) ++fast_errors;
  }
  EXPECT_EQ(fast_errors, 0);
  EXPECT_FALSE(slow_done.load());  // the slow call really overlapped
  warehouse.ReleaseAll();
  slow_thread.join();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->payload, PayloadFor(slow_query));
}

TEST_F(MultiplexedClientServerTest, FollowerDeadlineExpiresWhileAnotherReads) {
  // Three threads await held responses, each starting 400 ms after the
  // previous one, with a 1.5 s deadline. The first leads and times
  // out; the role passes to the newest follower, so the middle thread
  // times out as a follower while the third is still reading. The third
  // call must then still receive its response once the daemon releases
  // it, and the connection must stay usable for everyone afterwards.
  LatchedWarehouse warehouse;
  WatchmanServer::Options server_options;
  server_options.num_workers = 8;
  StartServer(server_options, warehouse.Executor());
  MultiplexedClient::Options options = ClientOptions();
  options.io_timeout_ms = 1500;
  auto connected = MultiplexedClient::Connect(options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<MultiplexedClient> client = std::move(connected).value();

  using Clock = std::chrono::steady_clock;
  struct Call {
    std::string query;
    StatusOr<MultiplexedClient::FetchResult> result =
        Status::Internal("not answered");
    double elapsed_ms = 0;
    std::atomic<bool> done{false};
  };
  Call calls[3];
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    calls[i].query = "select held " + std::to_string(i);
    threads.emplace_back([&, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(400 * i));
      const auto begin = Clock::now();
      calls[i].result = client->Execute(calls[i].query);
      calls[i].elapsed_ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - begin)
                                .count();
      calls[i].done.store(true);
    });
  }
  // The middle call's deadline passes first after the leader's; only
  // then does the daemon answer the third call.
  while (!calls[1].done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(calls[2].done.load());
  warehouse.Release(calls[2].query);
  for (auto& thread : threads) thread.join();

  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(calls[i].result.ok()) << i;
    EXPECT_EQ(calls[i].result.status().code(), StatusCode::kIOError) << i;
    EXPECT_GE(calls[i].elapsed_ms, 1400.0) << i;
  }
  ASSERT_TRUE(calls[2].result.ok()) << calls[2].result.status().ToString();
  EXPECT_EQ(calls[2].result->payload, PayloadFor(calls[2].query));

  // Late responses to the timed-out calls are dropped; the connection
  // keeps serving.
  warehouse.ReleaseAll();
  EXPECT_TRUE(client->Ping().ok());
  auto again = client->Execute(calls[0].query);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->payload, PayloadFor(calls[0].query));
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

TEST_F(MultiplexedClientServerTest, PartialWriteResumptionUnderTinySndbuf) {
  // A 4 KiB SO_SNDBUF against ~64 KiB responses forces every response
  // through the EPOLLOUT partial-write resumption path; 32 pipelined
  // GETs make many of them overlap in one connection's output buffer.
  WatchmanServer::Options server_options;
  server_options.sndbuf_bytes = 4096;
  server_options.num_workers = 4;
  StartServer(server_options);
  constexpr int kQueries = 32;
  auto client = MakeClient();
  std::vector<std::string> payloads;
  for (int i = 0; i < kQueries; ++i) {
    const std::string query = "select big " + std::to_string(i);
    std::string payload(64 * 1024,
                        static_cast<char>('a' + (i % 26)));
    payload.replace(0, query.size(), query);  // make each unique
    ASSERT_TRUE(client->Execute(query, payload, 100, {"rel"}).ok());
    payloads.push_back(std::move(payload));
  }
  std::vector<MultiplexedClient::Ticket> tickets;
  for (int i = 0; i < kQueries; ++i) {
    auto ticket = client->StartGet("select big " + std::to_string(i));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (int i = 0; i < kQueries; ++i) {
    auto response = client->Await(tickets[static_cast<size_t>(i)]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->code, StatusCode::kOk) << i;
    // Byte-exact through arbitrarily split writes.
    EXPECT_EQ(response->payload, payloads[static_cast<size_t>(i)]) << i;
  }
}

TEST_F(MultiplexedClientServerTest, AwaitDeadlineAgainstSilentDaemon) {
  // A "daemon" that accepts and reads but never replies: Await must
  // fail with IOError within the configured deadline instead of
  // blocking its thread forever.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  std::thread server([listen_fd] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) return;
    char sink[4096];
    while (::recv(conn, sink, sizeof(sink), 0) > 0) {
    }
    ::close(conn);
  });

  MultiplexedClient::Options options;
  options.port = ntohs(addr.sin_port);
  options.connect_attempts = 1;
  options.io_timeout_ms = 250;
  auto client = MultiplexedClient::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto begin = std::chrono::steady_clock::now();
  auto got = (*client)->Get("select 1");
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - begin)
          .count();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  EXPECT_GE(elapsed_ms, 200.0);
  EXPECT_LT(elapsed_ms, 5000.0);
  (*client).reset();  // closes the connection, unblocking the fake daemon
  server.join();
  ::close(listen_fd);
}

TEST_F(MultiplexedClientServerTest, TransportFailureIsStickyAndFailsFast) {
  StartServer();
  auto client = MakeClient();
  ASSERT_TRUE(client->Ping().ok());
  server_->Stop();  // closes the connection under the client
  // The reader notices EOF and fails the connection. The failure stays
  // until a start redials: against the stopped daemon every later call
  // pays one dial (default options: at most 300 ms of backoff against
  // a refused port) and fails with its error instead of hanging.
  Status status;
  for (int i = 0; i < 50; ++i) {
    status = client->Ping();
    if (!status.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(status.ok());
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_FALSE(client->Ping().ok());
  const double fail_fast_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_LT(fail_fast_ms, 1000.0);
}

TEST_F(MultiplexedClientServerTest, ThreadsSharingOneClientSurviveRestart) {
  // Threads share one client and run blocking GETs while the daemon is
  // stopped and a new one starts on the same port (same cache). The
  // calls caught by the outage may fail; every call started after the
  // restart must succeed, over ONE new connection that all the threads
  // share, and the replaced socket must not leak.
  StartServer();
  const uint16_t port = server_->port();
  const std::string query = "select survives from restart";
  const size_t fds_before = CountEntries("/proc/self/fd");
  MultiplexedClient::Options options = ClientOptions();
  options.io_timeout_ms = 5000;
  auto connected = MultiplexedClient::Connect(options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<MultiplexedClient> client = std::move(connected).value();
  ASSERT_TRUE(client->Execute(query, PayloadFor(query), 100, {}).ok());

  constexpr int kThreads = 3;
  constexpr int kCallsAfterRestart = 200;
  std::atomic<bool> restarted{false};
  std::atomic<int> calls_before{0};
  std::atomic<int> failures_after{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int calls_after = 0;
      while (calls_after < kCallsAfterRestart) {
        const bool after = restarted.load();
        auto got = client->Get(query);
        if (!after) {
          calls_before.fetch_add(1);
        } else {
          ++calls_after;
          if (!got.ok() || got->payload != PayloadFor(query)) {
            failures_after.fetch_add(1);
          }
        }
      }
    });
  }
  while (calls_before.load() < 100) std::this_thread::yield();
  server_->Stop();
  server_.reset();
  WatchmanServer::Options server_options;
  server_options.port = port;  // SO_REUSEADDR lets the new one rebind
  server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
  EXPECT_TRUE(server_->Start().ok());
  restarted.store(true);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures_after.load(), 0);
  EXPECT_EQ(server_->connections_accepted(), 1u);
  client.reset();
  for (int i = 0; i < 200 && server_->StatsSnapshot().connections_active > 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The new daemon holds the same descriptors the old one did.
  EXPECT_LE(CountEntries("/proc/self/fd"), fds_before);
}

}  // namespace
}  // namespace watchman
