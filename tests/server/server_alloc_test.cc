// Zero-allocation guarantee of the server's steady-state request path,
// asserted the same way tests/cache/allocation_test.cc does for the
// cache: the binary-wide counting allocator is armed process-wide
// (minus the client thread driving traffic) and the measured window
// must record zero allocations on the server's IO thread and workers.
//
// Three paths are measured per backend:
//  * the inline fast path -- a blocking client's PING, GET-hit and
//    GET-miss round trips are answered on the IO thread, reusing the
//    connection buffers and the IO-thread request/response scratch; a
//    miss answers NotFound with a fixed short message, so it allocates
//    no more than a hit;
//  * the worker path (inline dispatch disabled) -- every frame cycles
//    a pooled body through the FrameQueue ring and a worker's scratch,
//    exercising FramePool recycling end to end;
//  * the shed path -- a peer over its request quota is answered
//    kShedRetryLater from the IO thread's response scratch, so an
//    overloaded IO thread does not allocate per shed frame.
//
// EXECUTE itself is not measured: an admitted fill is copied into the
// payload store, which allocates, so it is not allocation-free by
// contract on either path. A miss-fill EXECUTE runs inline too, though,
// on the same IO-thread scratch, so the inline test also checks that
// one does not cost the GET hits after it their pooled capacity.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "server/client.h"
#include "server/server.h"
#include "server/uring.h"
#include "support/counting_alloc.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

class ServerAllocTest : public testing::TestWithParam<ServerBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == ServerBackend::kIoUring && !Uring::KernelSupported()) {
      GTEST_SKIP() << "kernel cannot run the io_uring backend";
    }
  }

  void StartServer(bool inline_dispatch,
                   const AdmissionOptions& admission = AdmissionOptions()) {
    Watchman::Options options;
    options.capacity_bytes = 8 << 20;
    cache_ = std::make_unique<Watchman>(std::move(options),
                                        WatchmanServer::MissFillExecutor());
    WatchmanServer::Options server_options;
    server_options.port = 0;
    server_options.backend = GetParam();
    server_options.inline_dispatch = inline_dispatch;
    server_options.admission = admission;
    // One worker: the warmup passes heat that worker's decode/encode
    // scratch, and the measured window reuses it deterministically.
    server_options.num_workers = 1;
    server_ = std::make_unique<WatchmanServer>(cache_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_EQ(server_->effective_backend(), GetParam());

    MultiplexedClient::Options client_options;
    client_options.port = server_->port();
    // A shed is the answer under test, not something to wait out.
    client_options.shed_retries = 0;
    auto client = MultiplexedClient::Connect(client_options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(client).value();

    // One cached set so kQuery's GET round trips are hits.
    ASSERT_TRUE(
        client_->Execute(kQuery, std::string(64, 'p'), 1000, {}).ok());
  }

  /// `misses`: each round also sends a GET for a set never cached.
  void RunTraffic(int rounds, bool misses) {
    for (int i = 0; i < rounds; ++i) {
      ASSERT_TRUE(client_->Ping().ok());
      auto got = client_->Get(kQuery);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (misses) {
        auto miss = client_->Get(kMissQuery);
        ASSERT_EQ(miss.status().code(), StatusCode::kNotFound)
            << miss.status().ToString();
      }
    }
  }

  static constexpr const char* kQuery = "select hot from steady_state";
  static constexpr const char* kMissQuery = "select cold from never_filled";

  std::unique_ptr<Watchman> cache_;
  std::unique_ptr<WatchmanServer> server_;
  std::unique_ptr<MultiplexedClient> client_;
};

TEST_P(ServerAllocTest, InlineFastPathDoesNotAllocate) {
  StartServer(/*inline_dispatch=*/true);
  // Warm buffers, scratch, counters.
  RunTraffic(/*rounds=*/100, /*misses=*/true);
  const uint64_t inlined_before = server_->inline_dispatched();

  testsupport::GlobalCountingScope scope;
  RunTraffic(/*rounds=*/100, /*misses=*/true);
  const uint64_t allocations = scope.count();
  testsupport::SetGlobalCounting(false);

  // All 300 measured frames (PING, GET hit, GET miss) really took the
  // inline path...
  EXPECT_EQ(server_->inline_dispatched(), inlined_before + 300);
  // ...and the server side allocated nothing to serve them.
  EXPECT_EQ(allocations, 0u)
      << "inline path allocated " << allocations << " times over 300 frames";

  // Interleave inline miss-fill EXECUTEs, whose payloads are smaller
  // than kQuery's but too long for the small-string buffer: the GET hit
  // after each one must still find the scratch's capacity in place.
  uint64_t after_fill_allocations = 0;
  for (int i = 0; i < 50; ++i) {
    const uint64_t inlined = server_->inline_dispatched();
    ASSERT_TRUE(client_
                    ->Execute("select fill " + std::to_string(i),
                              std::string(32, 'f'), 1000, {})
                    .ok());
    // The PING is answered only after the IO thread has finished the
    // EXECUTE, so none of its work leaks into the measured window.
    ASSERT_TRUE(client_->Ping().ok());
    ASSERT_EQ(server_->inline_dispatched(), inlined + 2);
    testsupport::GlobalCountingScope get_scope;
    auto got = client_->Get(kQuery);
    after_fill_allocations += get_scope.count();
    testsupport::SetGlobalCounting(false);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
  EXPECT_EQ(after_fill_allocations, 0u)
      << "GET hits after an inline EXECUTE allocated "
      << after_fill_allocations << " times over 50 frames";
}

TEST_P(ServerAllocTest, WorkerPathDoesNotAllocateOncePoolsAreWarm) {
  StartServer(/*inline_dispatch=*/false);
  RunTraffic(/*rounds=*/100, /*misses=*/false);
  ASSERT_EQ(server_->inline_dispatched(), 0u);
  const uint64_t reuses_before = server_->frame_pool().reuses();

  testsupport::GlobalCountingScope scope;
  RunTraffic(/*rounds=*/100, /*misses=*/false);
  const uint64_t allocations = scope.count();
  testsupport::SetGlobalCounting(false);

  // Every measured frame cycled a recycled body through the pool...
  EXPECT_EQ(server_->frame_pool().reuses(), reuses_before + 200);
  // ...allocation-free.
  EXPECT_EQ(allocations, 0u)
      << "worker path allocated " << allocations << " times over 200 frames";
}

TEST_P(ServerAllocTest, ShedsDoNotAllocate) {
  // One token, refilled every 100 s: the setup's EXECUTE spends it and
  // every later request is over the peer's quota.
  AdmissionOptions admission;
  admission.peer_requests_per_sec = 0.01;
  admission.peer_burst = 1;
  StartServer(/*inline_dispatch=*/true, admission);
  auto shed_pings = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(client_->Ping().code(), StatusCode::kShedRetryLater);
    }
  };
  shed_pings(100);  // warm the response scratch and the out-buffer
  const uint64_t sheds_before = server_->sheds(ShedReason::kPeerQuota);

  testsupport::GlobalCountingScope scope;
  shed_pings(100);
  const uint64_t allocations = scope.count();
  testsupport::SetGlobalCounting(false);

  EXPECT_EQ(server_->sheds(ShedReason::kPeerQuota), sheds_before + 100);
  // "shed: peer_quota" outgrows the small-string buffer, so a message
  // built per frame would allocate on every one of them.
  EXPECT_EQ(allocations, 0u)
      << "shed path allocated " << allocations << " times over 100 frames";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ServerAllocTest,
    testing::Values(ServerBackend::kEpoll, ServerBackend::kIoUring),
    [](const testing::TestParamInfo<ServerBackend>& info) {
      return std::string(ServerBackendName(info.param));
    });

}  // namespace
}  // namespace watchman
