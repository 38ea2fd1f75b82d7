// Regression tests for the client's failure-path contract: capped dial
// backoff, poll-enforced deadlines (a stalled or half-dead daemon must
// fail the call, not wedge it), the no-silent-replay rule for
// non-idempotent ops when a connection dies between send and reply, and
// the redial that follows a failure.
//
// The "daemons" here are hand-rolled sockets with precise misbehavior
// (accept-then-stall, read-then-close, reply-on-second-connection), so
// each test pins one failure mode deterministically.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "util/fault.h"

namespace watchman {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// A loopback listener the tests drive by hand.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Listen(int backlog) { ASSERT_EQ(::listen(fd_, backlog), 0); }

  int Accept() { return ::accept(fd_, nullptr, nullptr); }

  /// True when a connection is waiting to be accepted within `ms`.
  bool Pending(int ms) {
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, ms) > 0;
  }

  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Reads one complete frame body off a blocking socket; empty on EOF.
std::string ReadFrameBody(int fd) {
  std::string buf;
  char chunk[4096];
  while (true) {
    std::string_view body;
    size_t frame_size = 0;
    auto extracted =
        ExtractFrame(buf, kDefaultMaxFrameBytes, &body, &frame_size);
    if (extracted.ok() && *extracted) return std::string(body);
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return {};
    buf.append(chunk, static_cast<size_t>(n));
  }
}

MultiplexedClient::Options FastFailOptions(uint16_t port, int io_timeout_ms) {
  MultiplexedClient::Options options;
  options.port = port;
  options.connect_attempts = 1;
  options.io_timeout_ms = io_timeout_ms;
  return options;
}

TEST(DialBackoffTest, ScheduleIsCappedAndNeverOverflows) {
  // Doubles from the base...
  EXPECT_EQ(DialBackoffMs(20, 2000, 0), 0);  // first attempt never sleeps
  EXPECT_EQ(DialBackoffMs(20, 2000, 1), 20);
  EXPECT_EQ(DialBackoffMs(20, 2000, 2), 40);
  EXPECT_EQ(DialBackoffMs(20, 2000, 3), 80);
  EXPECT_EQ(DialBackoffMs(20, 2000, 7), 1280);
  // ...and pins at the cap instead of growing unbounded. Before the
  // cap, backoff_ms *= 2 overflowed int after ~30 attempts.
  EXPECT_EQ(DialBackoffMs(20, 2000, 8), 2000);
  EXPECT_EQ(DialBackoffMs(20, 2000, 9), 2000);
  EXPECT_EQ(DialBackoffMs(20, 2000, 1000), 2000);
  EXPECT_EQ(DialBackoffMs(1, 2000, 10000000), 2000);
  // Monotone non-decreasing over the whole schedule.
  for (int attempt = 1; attempt < 64; ++attempt) {
    EXPECT_GE(DialBackoffMs(20, 2000, attempt),
              DialBackoffMs(20, 2000, attempt - 1))
        << attempt;
  }
  // Degenerate configs stay sane.
  EXPECT_EQ(DialBackoffMs(0, 2000, 5), 0);
  EXPECT_EQ(DialBackoffMs(500, 100, 5), 500);  // cap below base: base wins
}

TEST(DialBackoffTest, JitterStaysInEqualJitterBandAndIsDeterministic) {
  // A nonzero seed spreads each sleep uniformly over [backoff/2,
  // backoff] so a restarting fleet does not redial in lockstep.
  for (uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    for (int attempt = 1; attempt < 32; ++attempt) {
      const int plain = DialBackoffMs(20, 2000, attempt);
      const int jittered = DialBackoffMs(20, 2000, attempt, seed);
      EXPECT_GE(jittered, plain / 2) << "seed " << seed << " attempt "
                                     << attempt;
      EXPECT_LE(jittered, plain) << "seed " << seed << " attempt " << attempt;
      // Pure function: the same (args, seed) always yields the same
      // value.
      EXPECT_EQ(jittered, DialBackoffMs(20, 2000, attempt, seed));
    }
  }
  // Attempt 0 never sleeps, jitter or not.
  EXPECT_EQ(DialBackoffMs(20, 2000, 0, 42), 0);
  // Different seeds actually land on different schedules.
  bool diverged = false;
  for (int attempt = 3; attempt < 16 && !diverged; ++attempt) {
    diverged = DialBackoffMs(20, 2000, attempt, 1) !=
               DialBackoffMs(20, 2000, attempt, 2);
  }
  EXPECT_TRUE(diverged);
}

TEST(ShedBackoffTest, StartsFromHintDoublesAndCaps) {
  // The daemon's retry-after hint seeds the schedule...
  EXPECT_EQ(ShedBackoffMs(50, 1000, 0), 50);
  EXPECT_EQ(ShedBackoffMs(50, 1000, 1), 100);
  EXPECT_EQ(ShedBackoffMs(50, 1000, 2), 200);
  EXPECT_EQ(ShedBackoffMs(50, 1000, 4), 800);
  EXPECT_EQ(ShedBackoffMs(50, 1000, 5), 1000);  // capped
  EXPECT_EQ(ShedBackoffMs(50, 1000, 1000000), 1000);
  // ...and a missing hint falls back to 10ms.
  EXPECT_EQ(ShedBackoffMs(0, 1000, 0), 10);
  EXPECT_EQ(ShedBackoffMs(-5, 1000, 1), 20);
  // A hint above the cap is clamped to it.
  EXPECT_EQ(ShedBackoffMs(5000, 1000, 0), 1000);
  // Jitter obeys the same equal-jitter band as DialBackoffMs.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int plain = ShedBackoffMs(50, 1000, attempt);
    const int jittered = ShedBackoffMs(50, 1000, attempt, 42);
    EXPECT_GE(jittered, plain / 2) << attempt;
    EXPECT_LE(jittered, plain) << attempt;
    EXPECT_EQ(jittered, ShedBackoffMs(50, 1000, attempt, 42));
  }
}

TEST(ClientDeadlineTest, StalledDaemonFailsTheCallWithinTheDeadline) {
  // The daemon accepts and reads but never replies: pre-v3 the client
  // blocked in ::recv forever (holding mu_, wedging every sharing
  // thread). Now the poll deadline fails the call.
  RawListener listener;
  listener.Listen(4);
  std::atomic<bool> stop{false};
  std::thread server([&] {
    const int conn = listener.Accept();
    if (conn < 0) return;
    char sink[4096];
    while (!stop.load()) {
      const ssize_t n = ::recv(conn, sink, sizeof(sink), 0);
      if (n <= 0) break;  // never reply, just consume
    }
    ::close(conn);
  });

  auto client =
      MultiplexedClient::Connect(FastFailOptions(listener.port(), 250));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto begin = Clock::now();
  const Status status = (*client)->Ping();
  const double elapsed_ms = ElapsedMs(begin);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  // A deadline ends the call without a redial: the connection may still
  // be healthy and shared. The bound leaves scheduling slack.
  EXPECT_LT(elapsed_ms, 5000.0);
  EXPECT_GE(elapsed_ms, 200.0);
  stop.store(true);
  // The connection outlives the failed call, so closing it is what
  // ends the fake daemon's recv.
  (*client).reset();
  server.join();
}

TEST(ClientDeadlineTest, UnservedBacklogFailsWithinTheDeadline) {
  // A bound socket whose backlog is full and never drained: depending
  // on kernel SYN-queue behavior the connect itself stalls, or it
  // "succeeds" into the backlog and the first round trip stalls.
  // Either way the caller must get an error within the deadline
  // budget, not hang (pre-v3: blocking ::connect / ::recv forever).
  RawListener listener;
  listener.Listen(1);
  std::vector<int> fillers;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(listener.port());
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    // Some of these connects may themselves block once the backlog is
    // full; non-blocking fire-and-forget is enough to stuff the queue.
    const int flags = 1;
    ::ioctl(fd, FIONBIO, &flags);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
  }

  const auto begin = Clock::now();
  auto client =
      MultiplexedClient::Connect(FastFailOptions(listener.port(), 250));
  Status status = client.ok() ? (*client)->Ping() : client.status();
  const double elapsed_ms = ElapsedMs(begin);
  EXPECT_FALSE(status.ok());
  EXPECT_LT(elapsed_ms, 5000.0);
  for (int fd : fillers) ::close(fd);
}

/// Serves `connections` sequential connections; for each, reads one
/// request and -- unless told to kill the connection -- answers it OK.
/// Records every opcode it saw.
struct FlakyDaemon {
  RawListener listener;
  std::vector<OpCode> seen;
  std::thread thread;

  /// kill_first: read the first connection's request, then close
  /// without replying (simulating "processed, response lost").
  void Run(int connections, bool kill_first) {
    listener.Listen(8);
    thread = std::thread([this, connections, kill_first] {
      for (int c = 0; c < connections; ++c) {
        const int conn = listener.Accept();
        if (conn < 0) return;
        const std::string body = ReadFrameBody(conn);
        if (!body.empty()) {
          auto request = DecodeRequest(body);
          if (request.ok()) {
            seen.push_back(request->op);
            if (!(kill_first && c == 0)) {
              WireResponse response;
              response.op = request->op;
              response.request_id = request->request_id;
              response.dropped = 1;
              const std::string frame = EncodeResponse(response);
              (void)!::send(conn, frame.data(), frame.size(), MSG_NOSIGNAL);
            }
          }
        }
        ::close(conn);
      }
    });
  }
  ~FlakyDaemon() {
    if (thread.joinable()) thread.join();
  }
};

TEST(ClientReplayTest, ProbeRedialsAfterResponseLost) {
  // GET is replay-safe: when the connection dies after the request was
  // sent but before the response arrived, the client redials and
  // resends, and the caller never notices.
  FlakyDaemon daemon;
  daemon.Run(/*connections=*/2, /*kill_first=*/true);
  auto client =
      MultiplexedClient::Connect(FastFailOptions(daemon.listener.port(), 2000));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto got = (*client)->Get("select 1");
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  daemon.thread.join();
  ASSERT_EQ(daemon.seen.size(), 2u);
  EXPECT_EQ(daemon.seen[0], OpCode::kGet);
  EXPECT_EQ(daemon.seen[1], OpCode::kGet);
}

TEST(ClientReplayTest, InvalidateIsNeverSilentlyReplayed) {
  // Differential twin of the test above: same connection-killed-between
  // -send-and-reply failure, but INVALIDATE must surface IOError
  // instead of resending -- a replay would report dropped=0 for a set
  // the daemon actually dropped, silently corrupting the caller's
  // bookkeeping. Exactly one INVALIDATE may reach the daemon.
  FlakyDaemon daemon;
  daemon.Run(/*connections=*/1, /*kill_first=*/true);
  auto client =
      MultiplexedClient::Connect(FastFailOptions(daemon.listener.port(), 2000));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto dropped = (*client)->Invalidate("select 1");
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kIOError);
  // The error says why it was not retried.
  EXPECT_NE(dropped.status().message().find("not retried"),
            std::string::npos)
      << dropped.status().ToString();
  daemon.thread.join();
  ASSERT_EQ(daemon.seen.size(), 1u);
  EXPECT_EQ(daemon.seen[0], OpCode::kInvalidate);
}

TEST(ClientReplayTest, InvalidateStillRedialsWhenNothingWasSent) {
  // A pooled connection killed BEFORE the next call: the failure
  // precedes any byte of the new request, so even a non-idempotent op
  // may safely redial. (First connection serves a GET, then closes;
  // the subsequent INVALIDATE finds the dead socket, redials, and is
  // served exactly once on the second connection.)
  FlakyDaemon daemon;
  daemon.Run(/*connections=*/2, /*kill_first=*/false);
  auto client =
      MultiplexedClient::Connect(FastFailOptions(daemon.listener.port(), 2000));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Get("select 1").ok());
  // The daemon closed the first connection after replying. The next
  // call may be sent into the dead socket (send succeeds into the
  // kernel buffer) or fail outright; both paths must end with exactly
  // one INVALIDATE processed.
  auto dropped = (*client)->Invalidate("select 1");
  // If the client refused to resend, the daemon is still waiting for a
  // second connection; a dummy connect-and-close releases it.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(daemon.listener.port());
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
  }
  daemon.thread.join();
  int invalidates_seen = 0;
  for (OpCode op : daemon.seen) {
    if (op == OpCode::kInvalidate) ++invalidates_seen;
  }
  if (dropped.ok()) {
    EXPECT_EQ(*dropped, 1u);
    EXPECT_EQ(invalidates_seen, 1);
  } else {
    // The kernel accepted the bytes before noticing the close: the
    // client correctly refused to replay.
    EXPECT_LE(invalidates_seen, 1);
  }
}

/// Accepts connections one at a time until stopped and idle, answers
/// every request OK, and records each request's opcode with the ordinal
/// of the connection it arrived on.
struct RecordingDaemon {
  RawListener listener;
  std::atomic<bool> stop{false};
  int accepted = 0;
  std::vector<std::pair<int, OpCode>> seen;
  /// When set, handles the first connection instead of Serve.
  std::function<void(int conn)> first_connection;
  std::thread thread;

  void Run() {
    listener.Listen(8);
    thread = std::thread([this] {
      // Exits only once stopped with no connection waiting, so every
      // dial the client completed before the stop is counted.
      while (listener.Pending(20) || !stop.load()) {
        const int conn = listener.Accept();
        if (conn < 0) continue;
        if (++accepted == 1 && first_connection) {
          first_connection(conn);
        } else {
          Serve(conn);
        }
        ::close(conn);
      }
    });
  }

  /// Answers frames until EOF.
  void Serve(int conn) {
    std::string buf;
    char chunk[4096];
    while (true) {
      std::string_view body;
      size_t frame_size = 0;
      auto extracted =
          ExtractFrame(buf, kDefaultMaxFrameBytes, &body, &frame_size);
      if (!extracted.ok()) return;
      if (*extracted) {
        auto request = DecodeRequest(body);
        if (!request.ok()) return;
        seen.emplace_back(accepted, request->op);
        WireResponse response;
        response.op = request->op;
        response.request_id = request->request_id;
        const std::string frame = EncodeResponse(response);
        (void)!::send(conn, frame.data(), frame.size(), MSG_NOSIGNAL);
        buf.erase(0, frame_size);
        continue;
      }
      const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      buf.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Stops accepting once idle; returns once the client has closed its
  /// connection.
  void Join() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }

  ~RecordingDaemon() { Join(); }
};

class ClientRedialTest : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(ClientRedialTest, BufferedFrameIsNotSentAfterAFailure) {
  // A pipelined INVALIDATE is buffered, then the flush fails before a
  // byte leaves. The failure fails the INVALIDATE's call, so the redial
  // that the next request triggers must drop its frame: the daemon sees
  // only the PING, on the second connection, and the ticket keeps the
  // failure's status after the redial.
  RecordingDaemon daemon;
  daemon.Run();
  auto client =
      MultiplexedClient::Connect(FastFailOptions(daemon.listener.port(), 2000));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto ticket = (*client)->StartInvalidate("select 1");
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE(FaultInjector::Global().Configure("send_reset=1").ok());
  EXPECT_FALSE((*client)->Flush().ok());
  FaultInjector::Global().Reset();

  EXPECT_TRUE((*client)->Ping().ok());
  auto invalidated = (*client)->Await(*ticket);
  ASSERT_FALSE(invalidated.ok());
  EXPECT_EQ(invalidated.status().code(), StatusCode::kIOError)
      << invalidated.status().ToString();

  (*client).reset();  // closes the second connection
  daemon.Join();
  EXPECT_EQ(daemon.accepted, 2);
  ASSERT_EQ(daemon.seen.size(), 1u);
  EXPECT_EQ(daemon.seen[0], std::make_pair(2, OpCode::kPing));
}

TEST_F(ClientRedialTest, FrameStillBufferedAtTheFailureIsDropped) {
  // Another thread awaits a PING that the daemon reads but never
  // answers; meanwhile this thread buffers an INVALIDATE without
  // flushing it. Then the daemon closes the connection. The failure
  // fails both calls, and the redial that the next request triggers
  // must drop the INVALIDATE's frame, not send it on the new connection.
  std::atomic<bool> ping_read{false};
  std::atomic<bool> release{false};
  RecordingDaemon daemon;
  daemon.first_connection = [&](int conn) {
    ping_read.store(!ReadFrameBody(conn).empty());
    while (!release.load() && !daemon.stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  daemon.Run();
  auto client =
      MultiplexedClient::Connect(FastFailOptions(daemon.listener.port(), 2000));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto ping = (*client)->StartPing();
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  StatusOr<WireResponse> pinged = Status::Internal("not awaited");
  std::thread waiter([&] { pinged = (*client)->Await(*ping); });
  for (int i = 0; i < 2000 && !ping_read.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto ticket = (*client)->StartInvalidate("select 1");
  release.store(true);  // the daemon closes the first connection
  waiter.join();
  EXPECT_TRUE(ping_read.load());
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  EXPECT_EQ(pinged.status().code(), StatusCode::kIOError)
      << pinged.status().ToString();

  EXPECT_TRUE((*client)->Ping().ok());
  auto invalidated = (*client)->Await(*ticket);
  EXPECT_EQ(invalidated.status().code(), StatusCode::kIOError)
      << invalidated.status().ToString();

  (*client).reset();  // closes the second connection
  daemon.Join();
  EXPECT_EQ(daemon.accepted, 2);
  ASSERT_EQ(daemon.seen.size(), 1u);
  EXPECT_EQ(daemon.seen[0], std::make_pair(2, OpCode::kPing));
}

TEST_F(ClientRedialTest, BlockingInvalidateRedialsExactlyOnce) {
  // Every send fails before a byte leaves, so the INVALIDATE may be
  // resent -- once: the call redials exactly once, then returns the
  // second failure, and no INVALIDATE ever reaches the daemon.
  RecordingDaemon daemon;
  daemon.Run();
  auto client =
      MultiplexedClient::Connect(FastFailOptions(daemon.listener.port(), 2000));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(FaultInjector::Global().Configure("send_reset=1").ok());
  auto dropped = (*client)->Invalidate("select 1");
  FaultInjector::Global().Reset();
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kIOError)
      << dropped.status().ToString();

  (*client).reset();
  daemon.Join();
  EXPECT_EQ(daemon.accepted, 2);
  EXPECT_TRUE(daemon.seen.empty());
}

}  // namespace
}  // namespace watchman
