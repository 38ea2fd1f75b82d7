// Client library for watchmand: MultiplexedClient, and RemoteWatchman,
// which layers the Watchman query API on top of it.

#ifndef WATCHMAN_SERVER_CLIENT_H_
#define WATCHMAN_SERVER_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "util/mutex.h"
#include "util/status.h"
#include "watchman/watchman.h"

namespace watchman {

/// Backoff in milliseconds slept before dial attempt `attempt`
/// (0-based; attempt 0 never sleeps). Doubles from `base_ms`, capped at
/// `max_ms`; immune to overflow however many attempts are configured.
/// A nonzero `jitter_seed` spreads the result uniformly over
/// [backoff/2, backoff] ("equal jitter") so a fleet restarting against
/// one daemon does not redial in lockstep; the function stays pure --
/// the same (args, seed) always yields the same value. Seed 0 disables
/// jitter.
int DialBackoffMs(int base_ms, int max_ms, int attempt,
                  uint64_t jitter_seed = 0);

/// Backoff in milliseconds before retrying a request the daemon shed
/// (kShedRetryLater). Starts from the daemon's retry-after hint
/// (`hint_ms`; <=0 falls back to 10ms), doubles per attempt (0-based),
/// caps at `max_ms`, and applies the same equal-jitter spread as
/// DialBackoffMs. Pure function; seed 0 disables jitter.
int ShedBackoffMs(int hint_ms, int max_ms, int attempt,
                  uint64_t jitter_seed = 0);

/// One watchmand connection shared by many application threads, using
/// the wire protocol's v3 request ids: a buffered writer pipelines
/// encoded frames (flushed on Await()/Flush(), no per-request round
/// trip), and the threads blocked in Await() take turns reading the
/// socket (leader/followers): one of them reads and routes every
/// response to its waiter by id, and hands the reading role to one
/// other waiter once its own response lands. Responses may complete out
/// of order and the pipe stays full, yet the client owns no thread, so
/// a blocking round trip wakes only its caller.
///
/// Every socket wait (connect, send, recv) honors Options::io_timeout_ms
/// via poll, so a stalled or half-dead daemon fails the call within the
/// deadline instead of wedging the caller; a deadline on Await fails
/// that call only. A transport failure (send or recv error, EOF, an
/// undecodable stream, a deadline on a send) fails every call in
/// flight; the next request started afterwards redials once, with the
/// Connect() options. A blocking call failed that way resends its
/// request once, on the new connection, ONLY when that is safe: either
/// no byte of its frame reached the wire, or the op is a pure
/// probe/offer (PING, GET, STATS, EXECUTE, COMPACT) whose replay the
/// daemon absorbs idempotently. INVALIDATE / INVALIDATE_RELATION are
/// NOT replay-safe -- a resend after a lost response would report
/// dropped=0 for a set the daemon actually dropped -- so those surface
/// IOError and let the caller decide.
class MultiplexedClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Dial attempts before Connect()/redial gives up.
    int connect_attempts = 5;
    /// Backoff before the second attempt; doubles per further attempt,
    /// capped at max_backoff_ms.
    int retry_backoff_ms = 20;
    int max_backoff_ms = 2000;
    /// Deadline enforced (via poll) on every socket wait -- connect,
    /// send, recv -- counted from the start of each call. 0 disables
    /// the deadline (waits forever, pre-v3 behavior).
    int io_timeout_ms = 30000;
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Automatic retries of a request the daemon shed (kShedRetryLater),
    /// each after a capped, jittered backoff seeded by the daemon's
    /// retry-after hint. Always safe: a shed request was never
    /// executed. 0 surfaces the shed status to the caller instead.
    int shed_retries = 3;
    /// Cap on one shed-retry backoff sleep.
    int max_shed_backoff_ms = 1000;
    /// When non-empty, bind the local end of the connection to this
    /// address before connecting (port stays ephemeral). Tests use
    /// distinct loopback addresses to exercise per-peer quotas.
    std::string local_addr;
  };

  /// What a GET / EXECUTE round trip produced.
  struct FetchResult {
    std::string payload;
    /// True when the daemon served the payload from its cache.
    bool cache_hit = false;
  };

  /// Handle for an in-flight pipelined request.
  using Ticket = uint64_t;

  /// Dials the daemon (with retry/backoff per `options`). Starts no
  /// thread.
  static StatusOr<std::unique_ptr<MultiplexedClient>> Connect(
      const Options& options);

  ~MultiplexedClient();

  MultiplexedClient(const MultiplexedClient&) = delete;
  MultiplexedClient& operator=(const MultiplexedClient&) = delete;

  // Pipelined API: StartX() encodes and buffers the request (no socket
  // write, no waiting; after a transport failure it redials first);
  // Flush()/Await() push buffered frames to the wire. Await(ticket)
  // blocks until that request's response arrives (or
  // Options::io_timeout_ms elapses -> IOError) and may be called from
  // any thread, in any order relative to other tickets. Sheds and
  // failures reach the caller verbatim: nothing is retried.
  StatusOr<Ticket> StartPing();
  StatusOr<Ticket> StartGet(const std::string& query_text);
  StatusOr<Ticket> StartExecute(const std::string& query_text);
  StatusOr<Ticket> StartExecute(const std::string& query_text,
                                const std::string& fill_payload,
                                uint64_t fill_cost,
                                std::vector<std::string> fill_relations = {});
  StatusOr<Ticket> StartInvalidate(const std::string& query_text);
  StatusOr<Ticket> StartInvalidateRelation(const std::string& relation);
  StatusOr<Ticket> StartStats();
  StatusOr<Ticket> StartCompact();

  /// Sends every buffered frame now (Await does this implicitly).
  Status Flush();

  /// Waits for `ticket`'s response. Each ticket may be awaited once; a
  /// call failed by the transport keeps that failure's status, also
  /// after a redial. The waiting thread may read the socket for other
  /// waiters meanwhile.
  StatusOr<WireResponse> Await(Ticket ticket) {
    return AwaitCall(ticket, nullptr);
  }

  // Blocking wrappers (Start + Await), concurrency-safe: N threads
  // calling these share the one connection and their requests pipeline
  // naturally. Sheds are retried per Options::shed_retries, and a call
  // failed by the transport is resent once when that is replay-safe.
  Status Ping();
  /// Hit-only probe; NotFound on a miss.
  StatusOr<FetchResult> Get(const std::string& query_text);
  /// Full lookup executed daemon-side (requires the daemon to own an
  /// executor; against a miss-fill daemon a miss returns NotFound).
  StatusOr<FetchResult> Execute(const std::string& query_text);
  /// Full lookup carrying the result this client computed for a miss:
  /// on a daemon-side miss the fill is offered to the cache (admission,
  /// coherence and all) and echoed back; on a hit the cached set wins
  /// and the fill is discarded.
  StatusOr<FetchResult> Execute(const std::string& query_text,
                                const std::string& fill_payload,
                                uint64_t fill_cost,
                                std::vector<std::string> fill_relations = {});
  /// Returns the number of retrieved sets dropped (0 or 1).
  StatusOr<uint64_t> Invalidate(const std::string& query_text);
  /// Returns the number of dependent retrieved sets dropped.
  StatusOr<uint64_t> InvalidateRelation(const std::string& relation);
  StatusOr<WireStats> Stats();
  /// Forces a metadata compaction pass on the daemon.
  Status Compact();

 private:
  /// What a connection failure left of a failed call's frame.
  enum class Loss : uint8_t {
    kNone,    // not a transport failure: the daemon reported a status
    kUnsent,  // send() accepted no byte of the frame
    kSent,    // send() accepted some: the daemon may have seen it
  };

  struct PendingCall {
    Mutex mu;
    CondVar cv;
    /// Stream offset of the frame's first byte on its connection.
    /// Written once, before the call is published in pending_.
    uint64_t offset = 0;
    bool done GUARDED_BY(mu) = false;
    /// The read role was handed to this call's waiter (WaitFor).
    bool promoted GUARDED_BY(mu) = false;
    /// The connection's failure, when it failed this call.
    Status error GUARDED_BY(mu);
    Loss loss GUARDED_BY(mu) = Loss::kNone;
    // Valid when done && error.ok().
    WireResponse response GUARDED_BY(mu);
  };

  MultiplexedClient(Options options, int fd);

  /// Stamps a fresh id on `request` and buffers it; redials first when
  /// the connection has failed.
  StatusOr<Ticket> StartRequest(WireRequest& request);
  StatusOr<Ticket> StartRequest(WireRequest&& request) {
    return StartRequest(request);
  }
  /// Registers `call` and appends `request`'s frame to outbuf_, unless
  /// the connection has failed: then returns that failure.
  Status Buffer(const WireRequest& request,
                const std::shared_ptr<PendingCall>& call)
      EXCLUDES(send_mu_, pending_mu_);
  /// Replaces a failed connection. Concurrent callers share one dial;
  /// OK at once when another thread already redialed.
  Status Redial() EXCLUDES(redial_mu_, read_mu_, flush_mu_);
  /// Await, also reporting in `*loss` (when not null) what a connection
  /// failure left of the call's frame, for the blocking path's resend.
  StatusOr<WireResponse> AwaitCall(Ticket ticket, Loss* loss);
  /// Start + Await for the blocking wrappers, with shed retries and the
  /// replay-safe resend.
  StatusOr<WireResponse> Call(WireRequest&& request);
  /// Returns once `call` is done or `deadline` passes, reading the
  /// socket itself whenever it can take the read role.
  void WaitFor(PendingCall* call,
               std::chrono::steady_clock::time_point deadline)
      EXCLUDES(read_mu_, pending_mu_);
  /// The read role's loop: routes buffered responses and receives more
  /// until `call` is done or `deadline` passes, or the stream breaks:
  /// then it fails the connection.
  void Lead(PendingCall* call,
            std::chrono::steady_clock::time_point deadline)
      REQUIRES(read_mu_) EXCLUDES(flush_mu_);
  /// Routes every complete frame in inbuf_ to its waiter; a non-OK
  /// status means the stream is unusable. `*reported` tells a status
  /// the daemon sent (an error frame with request id 0) from a
  /// transport failure.
  Status RouteFrames(bool* reported) REQUIRES(read_mu_);
  void RemoveFollower(PendingCall* call) EXCLUDES(pending_mu_);
  /// Hands the read role to one follower still waiting, if any.
  void PromoteFollower() EXCLUDES(pending_mu_);
  /// Records the connection's first failure and shuts `fd` down, which
  /// wakes a reader blocked in poll and ends a sender's wait at once.
  void MarkBroken(int fd, const Status& status, bool transport)
      EXCLUDES(pending_mu_);
  /// Fails every call still waiting on the broken connection. Holding
  /// flush_mu_ makes sent_ final: no send is in progress, and none
  /// starts once the connection is marked broken.
  void FailPending() REQUIRES(flush_mu_) EXCLUDES(pending_mu_);

  Options options_;

  /// Serializes redials. Lock order: redial_mu_, read_mu_, flush_mu_,
  /// send_mu_, pending_mu_, then a PendingCall's mu. read_mu_ precedes
  /// flush_mu_ because the reader that finds the connection broken
  /// takes flush_mu_ (FailPending) before it gives the read role up, so
  /// no redial can replace the socket in between. Redial dials with no
  /// lock but redial_mu_ held, then takes the other four to swap the
  /// socket, both buffers and the failure state at once.
  Mutex redial_mu_ ACQUIRED_BEFORE(read_mu_);

  /// The read role: held by the one Await()ing thread that reads the
  /// socket, taken only with TryLock (TRY_ACQUIRE) so a waiter never
  /// blocks on it -- it sleeps on its own call instead. Redial is the
  /// one blocking taker.
  Mutex read_mu_ ACQUIRED_BEFORE(flush_mu_, pending_mu_);
  /// The reader's copy of the socket (recv_fd_ == send_fd_ always;
  /// each side reads its own under its own lock, and Redial replaces
  /// both while holding both).
  int recv_fd_ GUARDED_BY(read_mu_);
  /// Bytes received but not yet routed; a partial frame waits here for
  /// the next leader.
  std::string inbuf_ GUARDED_BY(read_mu_);

  /// Writer state: encoded frames accumulate in outbuf_ under send_mu_
  /// and are sent in one batch by Flush/Await. The socket write itself
  /// happens under flush_mu_ ONLY, so StartX() keeps buffering (and
  /// never blocks) while another thread's flush is stalled on the
  /// socket; flush_mu_ serializes senders so batches hit the wire
  /// whole. flush_mu_ and send_mu_ are never both held across a
  /// syscall.
  Mutex flush_mu_ ACQUIRED_BEFORE(send_mu_, pending_mu_);
  int send_fd_ GUARDED_BY(flush_mu_);
  /// Bytes of this connection's stream that send() has accepted.
  uint64_t sent_ GUARDED_BY(flush_mu_) = 0;
  Mutex send_mu_ ACQUIRED_BEFORE(pending_mu_);
  std::string outbuf_ GUARDED_BY(send_mu_);
  /// Bytes of this connection's stream buffered so far: the offset of
  /// the next frame.
  uint64_t buffered_ GUARDED_BY(send_mu_) = 0;

  /// Waiter registry. A failed call stays listed, done, until awaited.
  Mutex pending_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall>> pending_
      GUARDED_BY(pending_mu_);
  /// Calls whose waiter sleeps without the read role (promotion
  /// candidates). Capacity is reserved up front.
  std::vector<PendingCall*> followers_ GUARDED_BY(pending_mu_);
  /// The connection's failure (OK while healthy), and whether it was
  /// the transport's; cleared by Redial.
  Status broken_ GUARDED_BY(pending_mu_);
  bool broken_transport_ GUARDED_BY(pending_mu_) = false;

  std::atomic<uint64_t> next_id_{0};
  /// Jitter seed for shed-retry backoff (fixed per client instance).
  uint64_t shed_jitter_seed_ = 0;
};

/// Drop-in remote counterpart of the Watchman facade's query API:
/// Execute() first probes the daemon (GET), on a miss runs the local
/// executor and offers the result back (EXECUTE + miss-fill), so
/// application code swaps a local Watchman for a RemoteWatchman without
/// restructuring -- same Execute()/Query() signatures, same executor
/// contract, and the daemon-side cache counts one reference per call
/// exactly like the local facade.
class RemoteWatchman {
 public:
  /// `executor` materializes misses locally (same contract as the
  /// Watchman constructor's executor).
  RemoteWatchman(std::unique_ptr<MultiplexedClient> client,
                 Watchman::Executor executor);

  /// Dials and wraps in one step.
  static StatusOr<std::unique_ptr<RemoteWatchman>> Connect(
      const MultiplexedClient::Options& options, Watchman::Executor executor);

  /// Mirrors Watchman::Execute(): probe the daemon, on a miss run the
  /// local executor and offer the result back. Executor errors
  /// propagate unchanged; failed executions are not cached.
  StatusOr<std::string> Execute(const std::string& query_text);

  /// Alias of Execute() (the paper-era name).
  StatusOr<std::string> Query(const std::string& query_text) {
    return Execute(query_text);
  }

  StatusOr<uint64_t> Invalidate(const std::string& query_text) {
    return client_->Invalidate(query_text);
  }
  StatusOr<uint64_t> InvalidateRelation(const std::string& relation) {
    return client_->InvalidateRelation(relation);
  }

  /// Daemon-side counters.
  StatusOr<WireStats> Stats() { return client_->Stats(); }

  MultiplexedClient& client() { return *client_; }

 private:
  std::unique_ptr<MultiplexedClient> client_;
  Watchman::Executor executor_;
};

}  // namespace watchman

#endif  // WATCHMAN_SERVER_CLIENT_H_
