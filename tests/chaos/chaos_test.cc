// Chaos integration suite: seeded fault schedules against a live
// daemon on BOTH event backends. Every schedule drives a mixed
// wire workload (blocking + pipelined calls) while the injector
// fires short reads/writes, EAGAIN storms, connection resets, slow-peer
// stalls, accept failures, store outages, executor crashes and
// allocation failures -- and asserts the three chaos invariants:
//
//  1. No crash: the daemon and both call paths survive the run.
//  2. No hang: every call returns within a bound derived from
//     io_timeout_ms (a wedged call fails the stopwatch assert).
//  3. No undocumented outcome: every client-visible status is one of
//     the documented error classes (OK, NotFound, IOError, Internal,
//     ShedRetryLater) -- nothing leaks a raw errno, an invalid frame,
//     or a partial response.
//
// After each schedule the injector is reset and a fresh client must be
// served cleanly: degradation is required to be transient.
//
// Schedules are deterministic per seed AND per site (the decision is a
// pure function of seed x site x call ordinal), so a failing seed here
// reproduces byte-for-byte under a debugger. CI runs this suite under
// ASan/LSan to pin the no-leak half of the contract.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "server/uring.h"
#include "util/fault.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

struct ChaosSchedule {
  const char* name;
  const char* spec;
};

// >= 8 seeded schedules, each biased toward one failure family plus a
// kitchen-sink mix. Probabilities are chosen so connections keep making
// progress (the suite asserts at least one success per run).
constexpr ChaosSchedule kSchedules[] = {
    {"recv_flaky", "seed=101,recv_short=0.08,recv_eagain=0.08"},
    {"send_flaky", "seed=202,send_short=0.08,send_eagain=0.08"},
    {"resets", "seed=303,recv_reset=0.02,send_reset=0.02"},
    {"slow_peer", "seed=404,recv_stall=0.05,send_stall=0.05,stall_ms=2"},
    {"accept_storm", "seed=505,accept_fail=0.3"},
    {"store_outage", "seed=606,store_put_fail=0.3,store_get_fail=0.3"},
    {"executor_chaos", "seed=707,exec_fail=0.2,exec_throw=0.1"},
    {"alloc_pressure", "seed=808,alloc_fail=0.5"},
    {"kitchen_sink",
     "seed=909,recv_short=0.05,send_short=0.05,recv_eagain=0.05,"
     "send_eagain=0.05,recv_reset=0.01,send_reset=0.01,store_put_fail=0.1,"
     "exec_fail=0.05,alloc_fail=0.1,stall_ms=1"},
};

constexpr int kIoTimeoutMs = 2000;
// A call that outlives this never returned within the io_timeout
// machinery: that is a hang, not an error.
constexpr int64_t kCallBoundMs = 10000;

/// One client-visible outcome, checked against the documented classes.
struct Outcomes {
  int ok = 0;
  int documented_errors = 0;
  std::vector<std::string> undocumented;
  int64_t max_call_ms = 0;

  void Record(StatusCode code, const Status& status, int64_t elapsed_ms) {
    if (elapsed_ms > max_call_ms) max_call_ms = elapsed_ms;
    switch (code) {
      case StatusCode::kOk:
        ++ok;
        return;
      case StatusCode::kNotFound:
      case StatusCode::kIOError:
      case StatusCode::kInternal:
      case StatusCode::kShedRetryLater:
        ++documented_errors;
        return;
      default:
        undocumented.push_back(std::string(StatusCodeName(code)) + ": " +
                               status.ToString());
    }
  }
};

class ChaosTest
    : public testing::TestWithParam<std::tuple<ServerBackend, size_t>> {
 protected:
  void SetUp() override {
    if (std::get<0>(GetParam()) == ServerBackend::kIoUring &&
        !Uring::KernelSupported()) {
      GTEST_SKIP() << "kernel cannot run the io_uring backend";
    }
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  static const ChaosSchedule& Schedule() {
    return kSchedules[std::get<1>(GetParam())];
  }

  void StartServer() {
    Watchman::Options options;
    options.capacity_bytes = 8 << 20;
    // A tight breaker so store outages exercise open/half-open cycling
    // within one run.
    options.store_breaker.failure_threshold = 3;
    options.store_breaker.cooldown_ms = 50;
    cache_ = std::make_unique<Watchman>(std::move(options),
                                        WatchmanServer::MissFillExecutor());
    WatchmanServer::Options server_options;
    server_options.port = 0;
    server_options.backend = std::get<0>(GetParam());
    server_options.io_timeout_ms = kIoTimeoutMs;
    server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_EQ(server_->effective_backend(), std::get<0>(GetParam()));
  }

  MultiplexedClient::Options ClientOptions() const {
    MultiplexedClient::Options options;
    options.port = server_->port();
    options.io_timeout_ms = kIoTimeoutMs;
    options.connect_attempts = 5;
    // Keep the stopwatch tight: shed statuses surface instead of
    // sleeping through retries (admission is off in this suite anyway).
    options.shed_retries = 0;
    return options;
  }

  std::unique_ptr<Watchman> cache_;
  std::unique_ptr<WatchmanServer> server_;
};

int64_t MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Blocking-call workload: a deterministic mix of fills, probes, pings
/// and invalidations. Transport failures are survived by the client's
/// own redial: a call that cannot be resent safely surfaces a
/// documented IOError, and the next call starts on a new connection.
void BlockingWorkload(const MultiplexedClient::Options& options, int ops,
                      Outcomes* out) {
  std::unique_ptr<MultiplexedClient> client;
  for (int i = 0; i < ops; ++i) {
    const auto start = std::chrono::steady_clock::now();
    if (!client) {
      auto connected = MultiplexedClient::Connect(options);
      if (!connected.ok()) {
        out->Record(connected.status().code(), connected.status(),
                    MsSince(start));
        continue;
      }
      client = std::move(connected).value();
    }
    const std::string query = "select c" + std::to_string(i % 8) +
                              " from chaos";
    Status status = Status::OK();
    switch (i % 4) {
      case 0: {
        auto r = client->Execute(query, "fill " + query, 100, {"chaos"});
        status = r.status();
        break;
      }
      case 1: {
        auto r = client->Get(query);
        status = r.status();
        break;
      }
      case 2:
        status = client->Ping();
        break;
      default: {
        auto r = client->Invalidate(query);
        status = r.status();
        break;
      }
    }
    out->Record(status.code(), status, MsSince(start));
  }
}

/// Pipelined workload: bursts awaited out of order. A transport failure
/// fails the burst's calls still in flight (documented IOErrors); the
/// next burst's first start redials.
void PipelinedWorkload(const MultiplexedClient::Options& options, int bursts,
                       Outcomes* out) {
  std::unique_ptr<MultiplexedClient> client;
  for (int b = 0; b < bursts; ++b) {
    const auto start = std::chrono::steady_clock::now();
    if (!client) {
      auto connected = MultiplexedClient::Connect(options);
      if (!connected.ok()) {
        out->Record(connected.status().code(), connected.status(),
                    MsSince(start));
        continue;
      }
      client = std::move(connected).value();
    }
    std::vector<MultiplexedClient::Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
      const std::string query = "select p" + std::to_string(i) +
                                " from chaos";
      auto ticket = (i % 2 == 0)
                        ? client->StartExecute(query, "fill", 50, {"chaos"})
                        : client->StartGet(query);
      if (!ticket.ok()) {
        out->Record(ticket.status().code(), ticket.status(), MsSince(start));
        break;
      }
      tickets.push_back(*ticket);
    }
    for (auto it = tickets.rbegin(); it != tickets.rend(); ++it) {
      auto response = client->Await(*it);
      if (response.ok()) {
        out->Record(response->code, Status::OK(), MsSince(start));
      } else {
        out->Record(response.status().code(), response.status(),
                    MsSince(start));
      }
    }
  }
}

TEST_P(ChaosTest, SurvivesScheduleWithDocumentedOutcomesOnly) {
  StartServer();
  const ChaosSchedule& schedule = Schedule();
  SCOPED_TRACE(schedule.spec);
  ASSERT_TRUE(FaultInjector::Global().Configure(schedule.spec).ok());

  Outcomes blocking, pipelined;
  std::thread t1([&] { BlockingWorkload(ClientOptions(), 60, &blocking); });
  std::thread t2([&] { PipelinedWorkload(ClientOptions(), 8, &pipelined); });
  t1.join();
  t2.join();

  for (const Outcomes* out : {&blocking, &pipelined}) {
    // Invariant 3: only documented error classes reached a caller.
    for (const std::string& bad : out->undocumented) {
      ADD_FAILURE() << "undocumented outcome: " << bad;
    }
    // Invariant 2: nothing outlived the io_timeout machinery.
    EXPECT_LT(out->max_call_ms, kCallBoundMs);
  }
  // Progress: chaos degraded service, it did not stop it.
  EXPECT_GE(blocking.ok + pipelined.ok, 1);

  // The schedule really fired: a refactor that routes IO around the
  // shims would turn this suite into a no-op without this check. The
  // one blind spot is accept_fail on io_uring, whose multishot-accept
  // path has no shim (uring sheds coverage there by design; epoll keeps
  // it).
  const bool accept_only_on_uring =
      std::string(schedule.name) == "accept_storm" &&
      std::get<0>(GetParam()) == ServerBackend::kIoUring;
  if (!accept_only_on_uring) {
    EXPECT_GT(FaultInjector::Global().injected_total(), 0u);
  }

  // Recovery: with the injector quiet again, a fresh client is served
  // cleanly -- and the daemon's own metrics survive a scrape.
  FaultInjector::Global().Reset();
  MultiplexedClient::Options clean_options = ClientOptions();
  auto clean = MultiplexedClient::Connect(clean_options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE((*clean)->Ping().ok());
  auto stats = (*clean)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->requests_served, 0u);

  // Invariant 1 is the test reaching this line (plus ASan in CI for the
  // no-leak half).
  server_->Stop();
}

std::string ChaosParamName(
    const testing::TestParamInfo<std::tuple<ServerBackend, size_t>>& info) {
  return std::string(kSchedules[std::get<1>(info.param)].name) + "_" +
         ServerBackendName(std::get<0>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ChaosTest,
    testing::Combine(testing::Values(ServerBackend::kEpoll,
                                     ServerBackend::kIoUring),
                     testing::Range<size_t>(0, std::size(kSchedules))),
    ChaosParamName);

}  // namespace
}  // namespace watchman
