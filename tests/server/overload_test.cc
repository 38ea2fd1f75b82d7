// Overload-protection integration tests: the admission layer's quota /
// connection-cap / global-budget shedding over a real loopback socket,
// the clients' shed-retry behavior, admin listener hardening, and the
// visibility of every shed event on /metrics. Parameterized over both
// event backends -- admission runs in the shared frame-parse path, and
// these tests keep it that way.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "server/uring.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

/// Blocking loopback HTTP client for the admin listener (which
/// half-closes after its response, so reads run to EOF).
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

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class OverloadTest : public testing::TestWithParam<ServerBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == ServerBackend::kIoUring && !Uring::KernelSupported()) {
      GTEST_SKIP() << "kernel cannot run the io_uring backend";
    }
  }

  WatchmanServer::Options BackendOptions() const {
    WatchmanServer::Options server_options;
    server_options.port = 0;
    server_options.backend = GetParam();
    return server_options;
  }

  void StartServer(WatchmanServer::Options server_options) {
    Watchman::Options options;
    options.capacity_bytes = 8 << 20;
    cache_ = std::make_unique<Watchman>(std::move(options),
                                        WatchmanServer::MissFillExecutor());
    server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
    ASSERT_EQ(server_->effective_backend(), GetParam());
  }

  MultiplexedClient::Options ClientOptions(int shed_retries = 0) const {
    MultiplexedClient::Options options;
    options.port = server_->port();
    options.shed_retries = shed_retries;
    return options;
  }

  std::unique_ptr<MultiplexedClient> MakeClient(int shed_retries = 0) {
    auto client = MultiplexedClient::Connect(ClientOptions(shed_retries));
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

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

TEST_P(OverloadTest, PeerQuotaShedsAbuserWhileNeighborIsServed) {
  WatchmanServer::Options server_options = BackendOptions();
  server_options.admission.peer_requests_per_sec = 50;
  server_options.admission.peer_burst = 2;
  StartServer(server_options);

  // The abuser hammers from 127.0.0.1 with shed retries disabled so the
  // raw wire status is visible.
  auto abuser = MakeClient(/*shed_retries=*/0);
  int ok = 0, shed = 0;
  for (int i = 0; i < 10; ++i) {
    const Status s = abuser->Ping();
    if (s.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(s.code(), StatusCode::kShedRetryLater) << s.ToString();
      ++shed;
    }
  }
  EXPECT_GE(ok, 2);    // the burst was served
  EXPECT_GE(shed, 1);  // the flood was shed, not queued
  EXPECT_GE(server_->sheds(ShedReason::kPeerQuota), static_cast<uint64_t>(shed));

  // A well-behaved neighbor on a different loopback address has its own
  // bucket: every paced request succeeds while the abuser is shed.
  MultiplexedClient::Options neighbor_options = ClientOptions(0);
  neighbor_options.local_addr = "127.0.0.2";
  auto neighbor = MultiplexedClient::Connect(neighbor_options);
  ASSERT_TRUE(neighbor.ok()) << neighbor.status().ToString();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE((*neighbor)->Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // The shed connection is still usable: once the bucket refills, the
  // abuser is served again on the same connection.
  ASSERT_TRUE(Eventually([&] { return abuser->Ping().ok(); }));
}

TEST_P(OverloadTest, ClientShedRetriesSucceedAfterBackoff) {
  WatchmanServer::Options server_options = BackendOptions();
  server_options.admission.peer_requests_per_sec = 100;
  server_options.admission.peer_burst = 1;
  StartServer(server_options);

  // Back-to-back requests exceed burst=1, but the client honors the
  // retry-after hint (10ms at 100/s) and every call succeeds.
  auto client = MakeClient(/*shed_retries=*/5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client->Ping().ok()) << "call " << i;
  }
  EXPECT_GE(server_->sheds(ShedReason::kPeerQuota), 1u);
}

TEST_P(OverloadTest, ConnectionCapShedsSecondConnection) {
  WatchmanServer::Options server_options = BackendOptions();
  server_options.admission.max_connections_per_peer = 1;
  StartServer(server_options);

  auto first = MakeClient(0);
  ASSERT_TRUE(first->Ping().ok());

  // The TCP handshake still succeeds (backlog), but the daemon answers
  // with a request-id-0 shed response and drains the connection.
  auto second = MakeClient(0);
  const Status s = second->Ping();
  EXPECT_EQ(s.code(), StatusCode::kShedRetryLater) << s.ToString();
  EXPECT_GE(server_->sheds(ShedReason::kPeerConnections), 1u);

  // Closing the counted connection frees the peer's slot.
  first.reset();
  ASSERT_TRUE(Eventually([&] {
    auto retry = MultiplexedClient::Connect(ClientOptions(0));
    return retry.ok() && (*retry)->Ping().ok();
  }));
}

TEST_P(OverloadTest, GlobalInflightBudgetShedsPipelinedBurst) {
  WatchmanServer::Options server_options = BackendOptions();
  server_options.admission.max_global_inflight = 1;
  server_options.num_workers = 1;
  StartServer(server_options);

  // A pipelined EXECUTE burst takes the worker queue (only the last
  // complete frame buffered on an idle connection may run inline) --
  // and the budget admits one frame at a time. Raw Start/Await is used
  // so shed responses are observable.
  MultiplexedClient::Options options;
  options.port = server_->port();
  auto client = MultiplexedClient::Connect(options);
  ASSERT_TRUE(client.ok());

  constexpr int kBurst = 100;
  std::vector<MultiplexedClient::Ticket> tickets;
  for (int i = 0; i < kBurst; ++i) {
    auto ticket = (*client)->StartExecute("select " + std::to_string(i),
                                          "fill", 10, {});
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  ASSERT_TRUE((*client)->Flush().ok());

  int ok = 0, shed = 0;
  for (const auto ticket : tickets) {
    auto response = (*client)->Await(ticket);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->code == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response->code, StatusCode::kShedRetryLater)
          << static_cast<int>(response->code) << " " << response->message;
      EXPECT_GE(response->retry_after_ms, 1u);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(server_->sheds(ShedReason::kGlobalInflight),
            static_cast<uint64_t>(shed));
}

TEST_P(OverloadTest, AdminConnectionCapRefusesExcess) {
  WatchmanServer::Options server_options = BackendOptions();
  server_options.admin_port = 0;  // enable on an ephemeral port
  server_options.max_admin_connections = 1;
  server_options.admin_header_timeout_ms = 0;  // isolate the cap
  StartServer(server_options);
  ASSERT_NE(server_->admin_port(), 0);

  // One idle admin connection occupies the only slot; the IO thread
  // adopts connections in accept order, so the holder is counted before
  // the second connection is even looked at ...
  HttpConn holder(server_->admin_port());
  ASSERT_TRUE(holder.connected());

  // ... and the next one is accepted at TCP level and closed
  // immediately without a response.
  HttpConn refused(server_->admin_port());
  EXPECT_EQ(refused.ReadToEof(), "");
  ASSERT_TRUE(Eventually([&] { return server_->admin_rejected() >= 1; }));

  // The wire port is not subject to the admin cap.
  auto client = MakeClient(0);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_P(OverloadTest, AdminSlowlorisHeaderDeadlineCloses) {
  WatchmanServer::Options server_options = BackendOptions();
  server_options.admin_port = 0;
  server_options.admin_header_timeout_ms = 100;
  StartServer(server_options);
  ASSERT_NE(server_->admin_port(), 0);

  // A slowloris peer trickles an incomplete request line and then goes
  // quiet; the header deadline reaps it within ~timeout + sweep tick.
  HttpConn slow(server_->admin_port());
  ASSERT_TRUE(slow.connected());
  slow.SendAll("GET /metr");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(slow.ReadToEof(), "");  // closed without a response
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 2000);
  EXPECT_GE(server_->admin_timeouts(), 1u);

  // A prompt client on the same listener is still served.
  HttpConn fast(server_->admin_port());
  ASSERT_TRUE(fast.connected());
  fast.SendAll("GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n");
  EXPECT_NE(fast.ReadToEof().find("200"), std::string::npos);
}

TEST_P(OverloadTest, ShedCountersVisibleOnMetricsEndpoint) {
  WatchmanServer::Options server_options = BackendOptions();
  server_options.admission.peer_requests_per_sec = 50;
  server_options.admission.peer_burst = 1;
  server_options.admin_port = 0;
  StartServer(server_options);
  ASSERT_NE(server_->admin_port(), 0);

  auto client = MakeClient(0);
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    if (client->Ping().code() == StatusCode::kShedRetryLater) ++shed;
  }
  ASSERT_GE(shed, 1);

  HttpConn conn(server_->admin_port());
  ASSERT_TRUE(conn.connected());
  conn.SendAll("GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n");
  const std::string body = conn.ReadToEof();
  EXPECT_NE(body.find("watchman_server_shed_total{reason=\"peer_quota\"}"),
            std::string::npos)
      << body.substr(0, 512);
  EXPECT_NE(body.find("watchman_server_shed_retry_hint_ms"),
            std::string::npos);
  EXPECT_NE(body.find("watchman_server_output_buffered_bytes"),
            std::string::npos);
  EXPECT_NE(body.find("watchman_facade_degraded_passthrough_total"),
            std::string::npos);
  EXPECT_NE(body.find("watchman_store_breaker_state"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, OverloadTest,
    testing::Values(ServerBackend::kEpoll, ServerBackend::kIoUring),
    [](const testing::TestParamInfo<ServerBackend>& info) {
      return std::string(ServerBackendName(info.param));
    });

}  // namespace
}  // namespace watchman
