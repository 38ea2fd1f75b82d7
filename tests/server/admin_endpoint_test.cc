// Admin HTTP endpoint integration tests: a raw loopback socket speaks
// HTTP to the /metrics listener running on the server's event loop, on
// both backends. The exposition is checked with the shared Prometheus
// text validator, and the wire STATS op is asserted to keep reporting
// per-op latency from the same metric objects.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "server/client.h"
#include "server/server.h"
#include "server/uring.h"
#include "support/promtext.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

/// Blocking loopback HTTP client. The admin listener half-closes after
/// its response, so reads run to EOF.
class HttpConn {
 public:
  explicit HttpConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~HttpConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void SendAll(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  std::string ReadToEof() {
    std::string response;
    char chunk[16384];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      response.append(chunk, static_cast<size_t>(n));
    }
    return response;
  }

  std::string RoundTrip(std::string_view request) {
    SendAll(request);
    return ReadToEof();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

std::string Get(uint16_t port, const std::string& path) {
  HttpConn conn(port);
  EXPECT_TRUE(conn.connected());
  return conn.RoundTrip("GET " + path + " HTTP/1.0\r\nHost: t\r\n\r\n");
}

/// Splits an HTTP response into (status line, body).
void SplitResponse(const std::string& response, std::string* status_line,
                   std::string* body) {
  const size_t line_end = response.find("\r\n");
  ASSERT_NE(line_end, std::string::npos) << response;
  *status_line = response.substr(0, line_end);
  const size_t sep = response.find("\r\n\r\n");
  ASSERT_NE(sep, std::string::npos) << response;
  *body = response.substr(sep + 4);
}

class AdminEndpointTest : public testing::TestWithParam<ServerBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == ServerBackend::kIoUring && !Uring::KernelSupported()) {
      GTEST_SKIP() << "kernel cannot run the io_uring backend";
    }
  }

  void StartServer(bool metrics = true) {
    Watchman::Options options;
    options.capacity_bytes = 1 << 20;
    options.num_shards = 2;
    cache_ = std::make_unique<Watchman>(
        std::move(options),
        [this](const std::string& text) -> StatusOr<Watchman::ExecutionResult> {
          executions_.fetch_add(1);
          return Watchman::ExecutionResult{"payload(" + text + ")", 5000, {}};
        });
    WatchmanServer::Options server_options;
    server_options.port = 0;
    server_options.admin_port = 0;  // ephemeral: parallel-safe in CI
    server_options.backend = GetParam();
    server_options.metrics = metrics;
    server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_EQ(server_->effective_backend(), GetParam());
    ASSERT_NE(server_->admin_port(), 0);
  }

  std::unique_ptr<MultiplexedClient> MakeClient() {
    MultiplexedClient::Options options;
    options.port = server_->port();
    auto client = MultiplexedClient::Connect(options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::atomic<int> executions_{0};
  std::unique_ptr<Watchman> cache_;
  std::unique_ptr<WatchmanServer> server_;
};

TEST_P(AdminEndpointTest, HealthzAnswersOk) {
  StartServer();
  std::string status_line, body;
  SplitResponse(Get(server_->admin_port(), "/healthz"), &status_line, &body);
  EXPECT_EQ(status_line, "HTTP/1.0 200 OK");
  EXPECT_EQ(body, "ok\n");
}

TEST_P(AdminEndpointTest, MetricsIsValidPrometheusExposition) {
  StartServer();
  // Drive traffic so the cache / facade / server families carry data:
  // one execution, one hit, one ping.
  auto client = MakeClient();
  ASSERT_TRUE(client->Execute("q1").ok());
  ASSERT_TRUE(client->Execute("q1").ok());
  ASSERT_TRUE(client->Ping().ok());

  const std::string response = Get(server_->admin_port(), "/metrics");
  std::string status_line, body;
  SplitResponse(response, &status_line, &body);
  EXPECT_EQ(status_line, "HTTP/1.0 200 OK");
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);

  std::string error;
  EXPECT_TRUE(testsupport::ValidatePrometheusText(body, &error))
      << error << "\n"
      << body;

  // Every layer's families are present, with per-shard cache labels.
  EXPECT_NE(body.find("watchman_cache_lookups_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(body.find("watchman_cache_lookups_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(body.find("watchman_cache_used_bytes"), std::string::npos);
  EXPECT_NE(body.find("watchman_cache_lock_acquisitions_total"),
            std::string::npos);
  EXPECT_NE(body.find("watchman_facade_executions_total 1"),
            std::string::npos);
  EXPECT_NE(
      body.find("watchman_facade_execution_cost_bucket{outcome=\"admitted\""),
      std::string::npos);
  EXPECT_NE(body.find("watchman_server_requests_total{op=\"execute\"} 2"),
            std::string::npos);
  EXPECT_NE(body.find("watchman_server_requests_total{op=\"ping\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("watchman_server_request_seconds_bucket{op=\"execute\""),
            std::string::npos);
  EXPECT_NE(body.find("watchman_server_info{backend=\""), std::string::npos);
}

TEST_P(AdminEndpointTest, UnknownPathIs404AndBadMethodIs405) {
  StartServer();
  std::string status_line, body;
  SplitResponse(Get(server_->admin_port(), "/nope"), &status_line, &body);
  EXPECT_EQ(status_line, "HTTP/1.0 404 Not Found");

  HttpConn conn(server_->admin_port());
  ASSERT_TRUE(conn.connected());
  SplitResponse(conn.RoundTrip("POST /metrics HTTP/1.0\r\n\r\n"), &status_line,
                &body);
  EXPECT_EQ(status_line, "HTTP/1.0 405 Method Not Allowed");
}

TEST_P(AdminEndpointTest, MalformedRequestIs400) {
  StartServer();
  HttpConn conn(server_->admin_port());
  ASSERT_TRUE(conn.connected());
  std::string status_line, body;
  SplitResponse(conn.RoundTrip("GARBAGE\r\n\r\n"), &status_line, &body);
  EXPECT_EQ(status_line, "HTTP/1.0 400 Bad Request");
}

TEST_P(AdminEndpointTest, SplitRequestAcrossPacketsStillParses) {
  StartServer();
  HttpConn conn(server_->admin_port());
  ASSERT_TRUE(conn.connected());
  // The listener must wait for the blank line before answering.
  conn.SendAll("GET /hea");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  conn.SendAll("lthz HTTP/1.0\r\n\r\n");
  std::string status_line, body;
  SplitResponse(conn.ReadToEof(), &status_line, &body);
  EXPECT_EQ(status_line, "HTTP/1.0 200 OK");
  EXPECT_EQ(body, "ok\n");
}

TEST_P(AdminEndpointTest, WireStatsStillReportsLatencyFromSameRegistry) {
  StartServer();
  auto client = MakeClient();
  ASSERT_TRUE(client->Execute("q1").ok());
  ASSERT_TRUE(client->Ping().ok());
  StatusOr<WireStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  bool saw_execute = false;
  for (const WireOpMetrics& op : stats->per_op) {
    if (static_cast<OpCode>(op.op) != OpCode::kExecute) continue;
    saw_execute = true;
    EXPECT_EQ(op.requests, 1u);
    EXPECT_EQ(op.errors, 0u);
    EXPECT_EQ(op.latency_count, 1u);
    EXPECT_GT(op.latency_mean_us, 0.0);
    EXPECT_GE(op.latency_max_us, op.latency_min_us);
  }
  EXPECT_TRUE(saw_execute);
  // op_counters() agrees with the wire payload.
  const WatchmanServer::OpCounters counters =
      server_->op_counters(OpCode::kExecute);
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.latency_count, 1u);
}

TEST_P(AdminEndpointTest, MetricsDisabledStillServesCountersAndStats) {
  StartServer(/*metrics=*/false);
  auto client = MakeClient();
  ASSERT_TRUE(client->Execute("q1").ok());

  std::string status_line, body;
  SplitResponse(Get(server_->admin_port(), "/metrics"), &status_line, &body);
  EXPECT_EQ(status_line, "HTTP/1.0 200 OK");
  std::string error;
  EXPECT_TRUE(testsupport::ValidatePrometheusText(body, &error)) << error;
  // Requests counted; the latency histogram stayed empty by contract.
  EXPECT_NE(body.find("watchman_server_requests_total{op=\"execute\"} 1"),
            std::string::npos);
  const WatchmanServer::OpCounters counters =
      server_->op_counters(OpCode::kExecute);
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.latency_count, 0u);
}

TEST_P(AdminEndpointTest, ScrapeUnderLoadStaysConsistent) {
  StartServer();
  auto client = MakeClient();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->Execute("q" + std::to_string(i % 7)).ok());
    if (i % 10 == 0) {
      std::string status_line, body;
      SplitResponse(Get(server_->admin_port(), "/metrics"), &status_line,
                    &body);
      EXPECT_EQ(status_line, "HTTP/1.0 200 OK");
      std::string error;
      EXPECT_TRUE(testsupport::ValidatePrometheusText(body, &error)) << error;
    }
  }
}

TEST_P(AdminEndpointTest, AdminDisabledByDefault) {
  Watchman::Options options;
  cache_ = std::make_unique<Watchman>(
      std::move(options),
      [](const std::string&) -> StatusOr<Watchman::ExecutionResult> {
        return Watchman::ExecutionResult{};
      });
  WatchmanServer::Options server_options;
  server_options.port = 0;
  server_options.backend = GetParam();
  server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
  ASSERT_TRUE(server_->Start().ok());
  EXPECT_EQ(server_->admin_port(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AdminEndpointTest,
    testing::Values(ServerBackend::kEpoll, ServerBackend::kIoUring),
    [](const auto& info) { return std::string(ServerBackendName(info.param)); });

}  // namespace
}  // namespace watchman
