// Client libraries for watchmand.
//
// WatchmanClient owns one TCP connection and issues one request per
// round trip; Connect() retries with capped exponential backoff, and
// every socket wait (connect, send, recv) honors Options::io_timeout_ms
// via poll, so a stalled or half-dead daemon fails the call within the
// deadline instead of wedging the caller. A round trip that hits a dead
// connection redials once ONLY when it is safe: either no byte of the
// request reached the wire, or the op is a pure probe/offer (PING, GET,
// STATS, EXECUTE) whose replay the daemon absorbs idempotently.
// INVALIDATE / INVALIDATE_RELATION are NOT replay-safe -- a resend
// after a lost response would report dropped=0 for a set the daemon
// actually dropped -- so those surface IOError and let the caller
// decide. Calls are serialized on an internal mutex, so a client may be
// shared between threads, but one connection pays one round trip at a
// time.
//
// MultiplexedClient shares ONE connection between many application
// threads using the wire protocol's v3 request ids: a buffered writer
// pipelines encoded frames (flushed on Await()/Flush(), no per-request
// round trip), and the threads blocked in Await() take turns reading
// the socket (leader/followers): one of them reads and routes every
// response to its waiter by id, and hands the reading role to one
// other waiter once its own response lands. Responses may complete out
// of order and the pipe stays full, yet the client owns no thread, so
// a blocking round trip wakes only its caller. StartX()/Await() expose
// the pipelining directly; the blocking Ping()/Get()/... wrappers are
// Start+Await and are safe to call from any number of threads
// concurrently.
//
// RemoteWatchman layers the Watchman query API on top of a
// WatchmanClient: Execute() first probes the daemon (GET), on a miss
// runs the local executor and offers the result back (EXECUTE +
// miss-fill), so application code swaps a local Watchman for a
// RemoteWatchman without restructuring -- same Execute()/Query()
// signatures, same executor contract, and the daemon-side cache counts
// one reference per call exactly like the local facade.

#ifndef WATCHMAN_SERVER_CLIENT_H_
#define WATCHMAN_SERVER_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
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

/// Blocking request/response client for one watchmand connection.
class WatchmanClient {
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

  /// Dials the daemon (with retry/backoff per `options`).
  static StatusOr<std::unique_ptr<WatchmanClient>> Connect(
      const Options& options);

  ~WatchmanClient();

  WatchmanClient(const WatchmanClient&) = delete;
  WatchmanClient& operator=(const WatchmanClient&) = delete;

  /// Liveness / framing check.
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

  /// Forces a metadata compaction pass on the daemon (idempotent, so
  /// replay-safe).
  Status Compact();

 private:
  explicit WatchmanClient(Options options);

  /// (Re)connects fd_, with retry/backoff.
  Status Dial() REQUIRES(mu_);
  /// One RoundTripLocked per shed-retry attempt (Options::shed_retries),
  /// sleeping the hinted, jittered backoff between attempts.
  StatusOr<WireResponse> RoundTrip(WireRequest& request) EXCLUDES(mu_);
  /// Stamps a fresh request id, sends `request` and reads the matching
  /// response; redials once only when the replay is provably safe.
  StatusOr<WireResponse> RoundTripLocked(WireRequest& request) REQUIRES(mu_);
  StatusOr<std::string> ReadFrameBody(
      std::chrono::steady_clock::time_point deadline) REQUIRES(mu_);
  void CloseLocked() REQUIRES(mu_);

  Options options_;
  Mutex mu_;
  int fd_ GUARDED_BY(mu_) = -1;
  uint64_t next_request_id_ GUARDED_BY(mu_) = 0;
  /// Jitter seed for shed-retry backoff (fixed per client instance).
  uint64_t shed_jitter_seed_ = 0;
  /// Bytes received but not yet consumed as a frame.
  std::string inbuf_ GUARDED_BY(mu_);
};

/// One connection shared by many application threads: requests are
/// stamped with unique ids, buffered and pipelined by a writer path
/// that never waits for responses, and whichever awaiting thread holds
/// the read role routes each response to its waiter by id. Any
/// transport failure (send error, recv error, undecodable response,
/// deadline on a send) is sticky: every pending and future call fails
/// with the same status and the caller reconnects by constructing a
/// new client. A deadline on Await fails that call only.
class MultiplexedClient {
 public:
  using Options = WatchmanClient::Options;
  using FetchResult = WatchmanClient::FetchResult;
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
  // write, no waiting); Flush()/Await() push buffered frames to the
  // wire. Await(ticket) blocks until that request's response arrives
  // (or Options::io_timeout_ms elapses -> IOError) and may be called
  // from any thread, in any order relative to other tickets.
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

  /// Waits for `ticket`'s response. Each ticket may be awaited once.
  /// The waiting thread may read the socket for other waiters meanwhile.
  StatusOr<WireResponse> Await(Ticket ticket);

  // Blocking wrappers (Start + Await), concurrency-safe: N threads
  // calling these share the one connection and their requests pipeline
  // naturally.
  Status Ping();
  StatusOr<FetchResult> Get(const std::string& query_text);
  StatusOr<FetchResult> Execute(const std::string& query_text);
  StatusOr<FetchResult> Execute(const std::string& query_text,
                                const std::string& fill_payload,
                                uint64_t fill_cost,
                                std::vector<std::string> fill_relations = {});
  StatusOr<uint64_t> Invalidate(const std::string& query_text);
  StatusOr<uint64_t> InvalidateRelation(const std::string& relation);
  StatusOr<WireStats> Stats();
  Status Compact();

 private:
  struct PendingCall {
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    /// The read role was handed to this call's waiter (WaitFor).
    bool promoted GUARDED_BY(mu) = false;
    // Transport-level failure (response invalid).
    Status error GUARDED_BY(mu);
    // Valid when done && error.ok().
    WireResponse response GUARDED_BY(mu);
  };

  explicit MultiplexedClient(Options options);

  StatusOr<Ticket> StartRequest(WireRequest& request);
  /// Start + Await with shed-retry backoff (the blocking wrappers).
  StatusOr<WireResponse> CallBlocking(
      const std::function<StatusOr<Ticket>()>& start);
  /// Returns once `call` is done or `deadline` passes, reading the
  /// socket itself whenever it can take the read role.
  void WaitFor(PendingCall* call,
               std::chrono::steady_clock::time_point deadline)
      EXCLUDES(read_mu_, pending_mu_);
  /// The read role's loop: routes buffered responses and receives more
  /// until `call` is done, `deadline` passes or the transport breaks.
  void Lead(PendingCall* call,
            std::chrono::steady_clock::time_point deadline)
      REQUIRES(read_mu_);
  /// Routes every complete frame in inbuf_ to its waiter; a non-OK
  /// status means the stream is unusable.
  Status RouteFrames() REQUIRES(read_mu_);
  void RemoveFollower(PendingCall* call) EXCLUDES(pending_mu_);
  /// Hands the read role to one follower still waiting, if any.
  void PromoteFollower() EXCLUDES(pending_mu_);
  /// Marks the transport broken and fails every pending call.
  void Break(const Status& status);

  Options options_;
  /// Deliberately unguarded: written exactly once (in Connect, before
  /// the client pointer escapes), then only read -- by flushers, the
  /// leader's poll/recv, Break's shutdown and the destructor's close.
  /// The unique_ptr handoff publishes it.
  int fd_ = -1;

  /// Writer state: encoded frames accumulate in outbuf_ under send_mu_
  /// and are sent in one batch by Flush/Await. The socket write itself
  /// happens under flush_mu_ ONLY, so StartX() keeps buffering (and
  /// never blocks) while another thread's flush is stalled on the
  /// socket; flush_mu_ serializes senders so batches hit the wire
  /// whole. Lock order: flush_mu_ before send_mu_, never both held
  /// across a syscall (ACQUIRED_BEFORE turns a violation into a
  /// compile error under -Werror=thread-safety).
  Mutex flush_mu_ ACQUIRED_BEFORE(send_mu_, pending_mu_);
  Mutex send_mu_;
  std::string outbuf_ GUARDED_BY(send_mu_);

  /// The read role: held by the one Await()ing thread that reads the
  /// socket, taken only with TryLock (TRY_ACQUIRE) so a waiter never
  /// blocks on it -- it sleeps on its own call instead. Lock order:
  /// read_mu_, then pending_mu_, then a PendingCall's mu; flush_mu_ and
  /// read_mu_ are never held together.
  Mutex read_mu_ ACQUIRED_BEFORE(pending_mu_);
  /// Bytes received but not yet routed; a partial frame waits here for
  /// the next leader.
  std::string inbuf_ GUARDED_BY(read_mu_);

  /// Waiter registry; broken_ is the sticky transport failure.
  Mutex pending_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall>> pending_
      GUARDED_BY(pending_mu_);
  /// Calls whose waiter sleeps without the read role (promotion
  /// candidates). Capacity is reserved up front.
  std::vector<PendingCall*> followers_ GUARDED_BY(pending_mu_);
  Status broken_ GUARDED_BY(pending_mu_);

  std::atomic<uint64_t> next_id_{0};
  /// Jitter seed for shed-retry backoff (fixed per client instance).
  uint64_t shed_jitter_seed_ = 0;
};

/// Drop-in remote counterpart of the Watchman facade's query API.
class RemoteWatchman {
 public:
  /// `executor` materializes misses locally (same contract as the
  /// Watchman constructor's executor).
  RemoteWatchman(std::unique_ptr<WatchmanClient> client,
                 Watchman::Executor executor);

  /// Dials and wraps in one step.
  static StatusOr<std::unique_ptr<RemoteWatchman>> Connect(
      const WatchmanClient::Options& options, Watchman::Executor executor);

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

  WatchmanClient& client() { return *client_; }

 private:
  std::unique_ptr<WatchmanClient> client_;
  Watchman::Executor executor_;
};

}  // namespace watchman

#endif  // WATCHMAN_SERVER_CLIENT_H_
