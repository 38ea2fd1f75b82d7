// WatchmanServer: the watchmand network front-end over a Watchman
// facade.
//
// Architecture (event loop + worker pool): one IO thread owns the
// listen socket and every connection socket. It accepts, reads into
// per-connection buffers, extracts complete frames and pushes them onto
// a ready-queue that a fixed pool of worker threads consumes; workers
// decode, dispatch into the (thread-safe) Watchman facade, and append
// the encoded response to the connection's output buffer -- attempting
// a direct non-blocking send, with the IO thread resuming partial
// writes. Idle connections therefore cost zero threads, many
// connections multiplex over the fixed pool, and responses to one
// connection may complete out of order (the v3 request id lets clients
// re-correlate).
//
// Event backends: the IO thread runs on either epoll (default,
// universal) or io_uring (Options::backend / --backend flag). The
// io_uring loop arms multishot accept and multishot receive with a
// registered provided-buffer ring, so a pipelined burst of N frames
// costs O(1) io_uring_enter calls instead of one epoll_wait plus one
// recv per wakeup; on kernels without a feature it degrades op by op
// (one-shot accept/recv) and on kernels without usable io_uring at all
// `auto`/`io_uring` fall back to epoll with a logged warning. Workers
// are backend-agnostic: the direct-send output path is shared, and the
// io_uring loop only replaces the readiness/ingest side. epoll is the
// default because it measured cheaper for request/response traffic: on
// a 4-vCPU Linux 6.18 VM, on the benchmark's tpcd_remote workload, the
// IO thread spent 14.4 us of CPU per request under epoll against
// 16.1 us under io_uring, whose ring also added 2 MiB of RSS, and a
// window of 32 pipelined GETs ran at 177K/s on epoll against 104K/s.
//
// Inline fast path: when a parsed frame is a cheap op (PING, GET,
// STATS), the connection has no frames in flight (response ordering)
// and the ready-queue is empty (queued work is never delayed), the IO
// thread dispatches it inline and appends the response to the
// out-buffer directly -- a blocking client's RTT skips the
// worker-queue hop entirely. A miss-fill EXECUTE qualifies too, when
// the facade's executor is MissFillExecutor() (recognized by its
// callable type, so a real warehouse executor never runs on the IO
// thread) and the frame is the last complete one buffered on its
// connection (a pipelined EXECUTE burst stays on the worker pool,
// under the admission layer's global inflight budget). INVALIDATE,
// INVALIDATE_RELATION and COMPACT always take a worker. A per-tick
// burst budget (Options::max_inline_burst) bounds how long the loop
// can stay in inline mode so a PING flood cannot starve event
// processing.
//
// Allocation discipline: frame bodies, connection in/out buffers and
// receive chunks are recycled through a FramePool, and the ready-queue
// is a ring (FrameQueue), so the steady-state request path performs no
// heap allocation (asserted by tests the same way allocation_test does
// for the cache).
//
// Flow control and lifetime:
//  * A connection whose decoded-frame backlog exceeds a cap stops being
//    read (reads disarmed) until workers catch up -- pipelining peers
//    cannot balloon the ready-queue.
//  * On a framing or decode error the server answers with the real
//    status -- echoing the request's opcode and id whenever the
//    prologue decoded -- then drains the peer to EOF before closing, so
//    the error response is never destroyed by a TCP reset.
//  * Options::io_timeout_ms bounds how long a connection may sit with
//    pending work (half-read frame, unflushed output, drain-to-EOF)
//    without progress; fully idle connections are never reaped.
//
// Maintenance: with Options::compact_idle_ms set, the IO thread runs
// Watchman::CompactMetadata() once per idle period (no ready work, no
// inflight frames, no traffic for that long); the COMPACT wire op
// forces the same pass remotely, and STATS reports the compaction count
// and the age of the last pass.
//
// The request handlers call straight into the facade, so hits on
// different cache shards proceed in parallel across workers and
// concurrent identical misses collapse into the facade's single-flight.
// Per-op request/error counters and latency histograms live in the
// lock-free obs registry (relaxed per-thread atomics, merged at read
// time) and surface through the STATS op, StatsSnapshot() and the
// Prometheus /metrics endpoint.
//
// Admin endpoint: with Options::admin_port >= 0 the IO thread also
// listens on a second socket speaking minimal HTTP/1.0. GET /metrics
// renders the registry in Prometheus text format; GET /healthz answers
// "ok". Requests are parsed and answered inline on the IO thread (the
// render is a few tens of microseconds) and every response closes the
// connection through the normal drain machinery.
//
// Miss-fill execution: a daemon has no warehouse of its own, so the
// EXECUTE op may carry the result the *client* computed for a miss.
// Construct the facade with MissFillExecutor() and the server hands
// that client-supplied fill to Watchman::ExecuteInto(), which offers it
// in place of an execution (admission, single-flight, relation tags and
// the coherence check included) and writes the answer into the response
// scratch; such an EXECUTE only copies the fill, so it may run inline
// (above). An embedder that does own a warehouse can instead construct
// the facade with a real executor; fills are then ignored, EXECUTE
// executes server-side, and EXECUTE always runs on a worker.

#ifndef WATCHMAN_SERVER_SERVER_H_
#define WATCHMAN_SERVER_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "server/admission.h"
#include "server/frame_pool.h"
#include "server/protocol.h"
#include "util/mutex.h"
#include "util/status.h"
#include "watchman/watchman.h"

namespace watchman {

class Uring;

/// Capability token for "owned by the server's IO thread" state: the
/// admission layer, connection registries and per-connection parse
/// buffers are GUARDED_BY(io_thread_role), so a worker-side touch is a
/// compile error under -Werror=thread-safety. The IO loop holds a
/// ThreadRoleGrant for its lifetime; Start() (before any thread is
/// spawned) and Stop() (after every thread is joined) take justified
/// transient grants. One token serves every WatchmanServer instance:
/// the analysis is per-function, and a thread only ever runs one
/// server's loop.
inline ThreadRole io_thread_role;

/// Event backend the IO thread runs on.
enum class ServerBackend {
  kEpoll,    // universal default
  kIoUring,  // batched submission; falls back to epoll when unavailable
  kAuto,     // io_uring when the kernel provides it, else epoll
};

/// Stable lower-case name ("epoll", "io_uring", "auto").
const char* ServerBackendName(ServerBackend backend);

/// Parses "epoll" / "io_uring" / "auto" (as spelled on --backend).
bool ParseServerBackend(std::string_view text, ServerBackend* out);

/// Event-loop TCP server exposing a Watchman facade.
class WatchmanServer {
 public:
  struct Options {
    /// Address to bind (default loopback only).
    std::string bind_address = "127.0.0.1";
    /// Port to bind; 0 picks an ephemeral port, read it back via
    /// port(). Tests and parallel CI runs should use 0.
    uint16_t port = 0;
    /// Worker threads draining the ready-queue of decoded frames.
    /// Connections are NOT pinned to workers: any worker serves any
    /// connection's next frame.
    size_t num_workers = 4;
    /// Per-frame body size limit; larger length prefixes answer with
    /// Corruption and close the connection.
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Event-loop tick bounding how long Stop(), timeouts and deferred
    /// closes can lag behind.
    int poll_interval_ms = 50;
    /// Closes a connection that has pending work (half-read frame,
    /// unflushed output, drain-to-EOF) but makes no progress for this
    /// long. 0 disables the reaping of stuck-but-healthy connections;
    /// fully idle connections are never reaped either way. Connections
    /// in a terminal state (protocol violation, EOF pending) are
    /// always bounded -- by this value, or a built-in 5s default when
    /// disabled -- so a misbehaving peer cannot hold its fd forever.
    int io_timeout_ms = 0;
    /// When nonzero, SO_SNDBUF for accepted connections (tests use a
    /// tiny value to force partial-write resumption).
    int sndbuf_bytes = 0;
    /// Per-connection cap on frames enqueued but not yet answered;
    /// beyond it the connection's reads pause until workers catch up.
    size_t max_inflight_frames = 4096;
    /// Event backend; kIoUring and kAuto fall back to epoll when the
    /// kernel cannot provide io_uring (kIoUring logs a warning).
    ServerBackend backend = ServerBackend::kEpoll;
    /// Dispatch cheap ops (PING/GET/STATS, and miss-fill EXECUTE; see
    /// the header comment) inline on the IO thread when the connection
    /// has nothing in flight and the ready-queue is empty, skipping the
    /// worker hop.
    bool inline_dispatch = true;
    /// Inline dispatches allowed per event-loop tick; beyond it frames
    /// take the worker path until the next tick (starvation guard).
    uint32_t max_inline_burst = 128;
    /// When positive, run Watchman::CompactMetadata() after this many
    /// milliseconds with no ready work, no inflight frames and no
    /// traffic; at most once per idle period. 0 disables.
    int compact_idle_ms = 0;
    /// Admin HTTP listener port (GET /metrics + /healthz on the same
    /// event loop, same bind address): -1 disables, 0 binds an
    /// ephemeral port readable back via admin_port().
    int admin_port = -1;
    /// Record latency/stage histograms and facade distributions. The
    /// per-op request/error counters stay on either way (the wire STATS
    /// op needs them); disabling trades the histograms for a few
    /// nanoseconds per request (the --no-metrics bench baseline).
    bool metrics = true;
    /// When positive, a request whose worker-path total (queue wait +
    /// service + reply) reaches this many microseconds emits one
    /// structured slow-request log line (WARN; JSON when the process
    /// log format is JSON). 0 disables. Requires `metrics`.
    int64_t slow_request_us = 0;
    /// Test hook: pretend the kernel has no io_uring so the fallback
    /// path is exercised deterministically.
    bool simulate_io_uring_unavailable = false;
    /// Admission budgets (per-peer quotas, connection caps, global
    /// inflight/memory budgets). All default to unlimited; over-budget
    /// requests are answered with kShedRetryLater BEFORE dispatch, so a
    /// shed request was never executed and is always safe to retry.
    AdmissionOptions admission;
    /// Concurrent admin HTTP connections allowed (0 = unlimited).
    /// Connections over the cap are refused at accept time -- the admin
    /// plane must stay responsive even when being hammered.
    size_t max_admin_connections = 8;
    /// Closes an admin connection whose HTTP headers have not fully
    /// arrived within this long of accept (slowloris guard). 0
    /// disables.
    int admin_header_timeout_ms = 5000;
  };

  /// Snapshot of one op's throughput/latency counters, derived from the
  /// per-op metric objects at call time.
  struct OpCounters {
    uint64_t requests = 0;
    uint64_t errors = 0;
    uint64_t latency_count = 0;
    double latency_mean_us = 0.0;
    double latency_min_us = 0.0;
    double latency_max_us = 0.0;
  };

  /// `cache` must outlive the server.
  WatchmanServer(Watchman* cache, Options options);
  ~WatchmanServer();

  WatchmanServer(const WatchmanServer&) = delete;
  WatchmanServer& operator=(const WatchmanServer&) = delete;

  /// Binds, listens and spawns the IO thread + workers. Fails (IOError)
  /// if the address cannot be bound; at most one successful Start() per
  /// server instance.
  Status Start();

  /// Graceful shutdown: stops accepting, shuts down live connections,
  /// joins all threads. Idempotent; also run by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolves port 0 after Start()).
  uint16_t port() const { return bound_port_; }

  /// The bound admin HTTP port after Start() (0 when disabled).
  uint16_t admin_port() const { return admin_bound_port_; }

  /// The metrics registry backing /metrics (embedders may render it
  /// themselves; safe to call while serving).
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }

  /// The backend actually serving after Start() resolved fallbacks.
  ServerBackend effective_backend() const { return effective_backend_; }

  /// Snapshot of cache + transport counters (the STATS op payload).
  WireStats StatsSnapshot() const;

  /// One op's counters (tests / embedders).
  OpCounters op_counters(OpCode op) const;

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Frames extracted from sockets but not yet claimed by a worker,
  /// right now (the ready-queue depth; wire-named connections_queued
  /// for v2 compatibility).
  uint64_t connections_queued() const {
    return ready_depth_.load(std::memory_order_relaxed);
  }

  /// High-water mark of the ready-queue since Start().
  uint64_t connections_queued_peak() const {
    return connections_queued_peak_.load(std::memory_order_relaxed);
  }

  /// Frames answered inline on the IO thread (fast path hits).
  uint64_t inline_dispatched() const {
    return inline_dispatched_.load(std::memory_order_relaxed);
  }

  /// Metadata compactions run (idle timer + COMPACT op).
  uint64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }

  /// Requests/connections shed by the admission layer, by reason.
  uint64_t sheds(ShedReason reason) const {
    return shed_counters_[static_cast<size_t>(reason)].Value();
  }

  /// Total sheds across every reason.
  uint64_t sheds_total() const {
    uint64_t total = 0;
    for (const obs::Counter& c : shed_counters_) total += c.Value();
    return total;
  }

  /// Response bytes buffered across all connections right now (the
  /// quantity max_global_output_bytes budgets).
  uint64_t output_bytes_pending() const {
    return output_bytes_.load(std::memory_order_relaxed);
  }

  /// Admin connections refused at accept (max_admin_connections).
  uint64_t admin_rejected() const {
    return admin_rejected_.load(std::memory_order_relaxed);
  }

  /// Admin connections closed by the header-read deadline (slowloris).
  uint64_t admin_timeouts() const {
    return admin_timeouts_.load(std::memory_order_relaxed);
  }

  /// The frame-body / connection-buffer recycler (tests).
  const FramePool& frame_pool() const { return body_pool_; }

  /// The executor of a daemon that has no warehouse: pass it to the
  /// Watchman constructor, and a server over that facade hands each
  /// EXECUTE's client-supplied fill to Watchman::ExecuteInto() and
  /// answers miss-fill EXECUTEs on its inline path. The executor itself
  /// answers only an EXECUTE that carried no fill: NotFound.
  static Watchman::Executor MissFillExecutor();

 private:
  /// Per-connection state. The IO thread owns fd registration, inbuf
  /// and the event-arming flags; workers and the IO thread share the
  /// output buffer under out_mu; the close decision is gated on the
  /// inflight frame count (release/acquire ordered), so a socket is
  /// only closed when no worker can still touch it.
  struct Connection {
    /// Written only by the IO thread (adopt / close); read by workers
    /// inside FlushLocked. Not capability-guarded: its stability for a
    /// worker is the inflight-count protocol (the IO thread never
    /// closes while inflight > 0, release/acquire ordered), which the
    /// analysis cannot express.
    int fd = -1;
    /// Accepted on the admin HTTP listener: inbuf holds an HTTP request
    /// instead of wire frames and the reply closes the connection.
    bool is_admin GUARDED_BY(io_thread_role) = false;
    /// Hash of the peer's address (port excluded): the admission
    /// layer's quota key. 0 when getpeername failed.
    uint64_t peer_key GUARDED_BY(io_thread_role) = 0;
    /// This connection holds a slot in the admission controller's
    /// per-peer connection count (balanced at final close).
    bool peer_counted GUARDED_BY(io_thread_role) = false;
    /// Admin connections: NowMs() deadline for complete HTTP headers
    /// (slowloris guard); 0 = none / already satisfied.
    int64_t admin_deadline_ms GUARDED_BY(io_thread_role) = 0;
    std::string inbuf GUARDED_BY(io_thread_role);
    Mutex out_mu;
    /// Pending output bytes / flushed prefix.
    std::string outbuf GUARDED_BY(out_mu);
    size_t out_off GUARDED_BY(out_mu) = 0;
    /// A send failed; close without flushing.
    bool send_error GUARDED_BY(out_mu) = false;
    bool want_write GUARDED_BY(io_thread_role) = false;  // EPOLLOUT armed
    bool read_paused GUARDED_BY(io_thread_role) = false;  // reads disarmed
    bool output_shutdown GUARDED_BY(io_thread_role) = false;  // SHUT_WR sent
    /// Listed in finishing_.
    bool in_finishing GUARDED_BY(io_thread_role) = false;
    // io_uring bookkeeping (IO thread only). The fd of a logically
    // closed connection moves to defunct_fd until every outstanding
    // SQE's completion has drained (uring_inflight), so a stale CQE can
    // never be misattributed to a reused fd.
    std::string chunk
        GUARDED_BY(io_thread_role);  // one-shot recv buffer (no buffer ring)
    int defunct_fd GUARDED_BY(io_thread_role) = -1;
    uint32_t uring_inflight GUARDED_BY(io_thread_role) = 0;
    bool recv_armed GUARDED_BY(io_thread_role) = false;
    bool recv_cancel_pending GUARDED_BY(io_thread_role) = false;
    bool pollout_armed GUARDED_BY(io_thread_role) = false;
    /// Read EOF/error seen (written by the IO thread; workers read it
    /// to decide whether the IO thread needs a wake-up).
    std::atomic<bool> input_closed{false};
    /// Protocol violation: stop parsing, answer, drain to EOF, close.
    std::atomic<bool> draining{false};
    /// True while an entry for this connection sits in the dirty list
    /// (suppresses duplicate wake-ups from concurrent workers).
    std::atomic<bool> dirty_pending{false};
    /// Frames handed to workers and not yet fully answered.
    std::atomic<uint32_t> inflight{0};
    /// Milliseconds-since-start of the last read/write progress,
    /// updated by both the IO thread and workers (io_timeout_ms).
    std::atomic<int64_t> last_progress_ms{0};
  };

  /// One decoded-frame work item (body copied out of the connection's
  /// read buffer -- into a pool-recycled string -- so the buffer can
  /// compact immediately).
  struct Work {
    std::shared_ptr<Connection> conn;
    std::string body;
    /// NowNs() when the frame entered the ready-queue (0 when metrics
    /// are off); feeds the queue-wait histogram.
    int64_t enqueue_ns = 0;
  };

  void IoLoop();
  void UringLoop();
  void WorkerLoop();

  // IO-thread helpers (backend-shared unless noted). REQUIRES the IO
  // role: a call from a worker path is a compile error.
  /// epoll: drain accept4 until EAGAIN on the wire or admin listener.
  void AcceptReady(bool admin) REQUIRES(io_thread_role);
  /// Registers one accepted socket (socket options, pooled buffers,
  /// read arming) on the active backend.
  void AdoptConnection(int conn_fd, bool is_admin)
      REQUIRES(io_thread_role);
  void ReadReady(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);  // epoll
  void ParseFrames(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Parses + answers the HTTP request buffered on an admin connection;
  /// every response transitions to draining/close.
  void HandleAdminData(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// True when `body` may run inline on the IO thread right now;
  /// `rest` is what the connection has buffered after it.
  bool CanInline(const std::shared_ptr<Connection>& conn,
                 std::string_view body, std::string_view rest) const
      REQUIRES(io_thread_role);
  /// Decode + dispatch + append-response on the IO thread (no flush;
  /// ParseFrames flushes once per batch).
  void InlineDispatch(const std::shared_ptr<Connection>& conn,
                      std::string_view body) REQUIRES(io_thread_role);
  /// Answers one parsed-but-not-admitted frame with kShedRetryLater
  /// (echoing the frame's op and id) and records the shed; the
  /// connection stays open.
  void ShedFrame(const std::shared_ptr<Connection>& conn,
                 std::string_view body, ShedReason reason,
                 uint32_t retry_after_ms) REQUIRES(io_thread_role);
  /// Records a shed in the per-reason counter + retry-hint histogram.
  void RecordShed(ShedReason reason, uint32_t retry_after_ms);
  /// Hash of the socket's peer address, port excluded (0 on failure).
  static uint64_t PeerKeyFor(int fd);
  /// Recomputes and applies the connection's read-side interest.
  void RearmInterest(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  void UpdateWriteInterest(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Close / half-close state machine for one connection.
  void FinishConnection(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Adds conn to finishing_ (deduplicated) for sweep re-examination.
  void EnqueueFinishing(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  void SweepConnections() REQUIRES(io_thread_role);
  /// Flushes/finishes connections workers flagged via MarkDirty.
  void ProcessDirtyConnections() REQUIRES(io_thread_role);
  void CloseConnection(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Returns the connection's pooled buffers to body_pool_ (final
  /// close only).
  void ReleaseConnectionBuffers(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Runs CompactMetadata() once per idle period (compact_idle_ms).
  void MaybeCompactIdle() REQUIRES(io_thread_role);
  /// Also the COMPACT op's handler, so callable from any worker.
  void RunCompaction();

  // io_uring-loop helpers (IO thread only).
  void UringArmAccept(bool admin) REQUIRES(io_thread_role);
  void UringArmWake() REQUIRES(io_thread_role);
  void UringArmRecv(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  void UringCancelRecv(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  void UringArmPollOut(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  void UringUpdateReadInterest(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  void UringCloseConnection(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Final teardown once no SQE references the connection.
  void UringFinalClose(const std::shared_ptr<Connection>& conn)
      REQUIRES(io_thread_role);
  /// Closes deferred-close connections whose completions drained.
  void ReapUringClosing() REQUIRES(io_thread_role);
  void HandleAcceptCqe(int32_t res, uint32_t flags, bool admin)
      REQUIRES(io_thread_role);
  void HandleRecvCqe(const std::shared_ptr<Connection>& conn, int32_t res,
                     uint32_t flags) REQUIRES(io_thread_role);

  /// Appends `bytes` to conn's output and attempts a direct
  /// non-blocking send; returns true when everything is on the wire
  /// (callable from workers and the IO thread).
  bool QueueOutput(const std::shared_ptr<Connection>& conn,
                   std::string_view bytes) EXCLUDES(conn->out_mu);
  /// The send loop of QueueOutput; stamps progress with `now_ms`, a
  /// NowMs() reading the caller already holds.
  bool FlushLocked(Connection* conn, int64_t now_ms) REQUIRES(conn->out_mu);
  /// Asks the IO thread to re-examine `conn` (arm write interest,
  /// close, ...).
  void MarkDirty(const std::shared_ptr<Connection>& conn);

  // Worker-side request handling.
  void ProcessFrame(Work& work, WireRequest* request, WireResponse* response,
                    std::string* encoded);
  void Dispatch(const WireRequest& request, WireResponse* response);
  void RecordOp(OpCode op, StatusCode code, int64_t latency_ns);

  /// Registers every metric family (cache, facade, server) with
  /// registry_; run once from the constructor.
  void BuildMetricsRegistry();

  int64_t NowMs() const;
  /// Nanoseconds since construction (latency/stage timestamps).
  int64_t NowNs() const;
  /// NowMs() as of this event-loop tick: the tick's first call reads the
  /// clock, later calls (and an inline dispatch's service timer) reuse
  /// the reading. Millisecond resolution is all the progress, activity
  /// and sweep deadlines need.
  int64_t IoNowMs() REQUIRES(io_thread_role);

  Watchman* cache_;
  Options options_;
  /// The facade runs MissFillExecutor(): EXECUTE hands the client's
  /// fill to the facade, and a miss-fill EXECUTE may take the inline
  /// path (CanInline).
  const bool miss_fill_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t bound_port_ = 0;
  ServerBackend effective_backend_ = ServerBackend::kEpoll;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread io_thread_;
  std::vector<std::thread> workers_;
  std::chrono::steady_clock::time_point start_time_;

  /// Live connections, keyed by fd.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_
      GUARDED_BY(io_thread_role);
  /// Connections in a terminal state (EOF seen / draining / send
  /// error) whose close could not complete yet; re-examined each tick
  /// so the idle steady state never scans the whole map.
  std::vector<std::shared_ptr<Connection>> finishing_
      GUARDED_BY(io_thread_role);
  /// Connections whose reads are paused for backpressure.
  std::vector<std::shared_ptr<Connection>> paused_reads_
      GUARDED_BY(io_thread_role);
  /// Accepting paused after fd exhaustion; retried each tick instead
  /// of busy-spinning.
  bool accept_paused_ GUARDED_BY(io_thread_role) = false;

  /// Admission state: per-peer buckets + connection counts. Guarded by
  /// the IO role, not a mutex -- frames are admitted where they are
  /// parsed, so the layer stays lock-free by construction.
  AdmissionController admission_ GUARDED_BY(io_thread_role);
  /// NowMs() of the last idle-peer GC pass over admission_.
  int64_t last_admission_gc_ms_ GUARDED_BY(io_thread_role) = 0;

  // Admin HTTP listener state (IO thread only except the bound port;
  // the listener fd itself is set up in Start() / torn down in Stop()).
  int admin_listen_fd_ = -1;
  uint16_t admin_bound_port_ = 0;
  bool admin_accept_paused_ GUARDED_BY(io_thread_role) = false;
  /// Open admin connections (max_admin_connections).
  size_t admin_conns_active_ GUARDED_BY(io_thread_role) = 0;
  /// Admin connections still awaiting complete HTTP headers, scanned by
  /// the sweep against their deadline.
  std::vector<std::shared_ptr<Connection>> admin_pending_
      GUARDED_BY(io_thread_role);
  /// Scratch for rendering admin responses (reused across requests).
  std::string admin_body_ GUARDED_BY(io_thread_role);
  std::string admin_response_ GUARDED_BY(io_thread_role);
  /// The backend/policy info gauge registers in Start() (once the
  /// effective backend is known), at most once per server instance.
  bool info_registered_ GUARDED_BY(io_thread_role) = false;

  // io_uring backend state (IO thread only; the ring itself is created
  // in Start() and destroyed in Stop(), both outside the role's reign).
  std::unique_ptr<Uring> uring_;
  bool accept_armed_ GUARDED_BY(io_thread_role) = false;
  bool admin_accept_armed_ GUARDED_BY(io_thread_role) = false;
  bool wake_armed_ GUARDED_BY(io_thread_role) = false;
  /// Cleared when the kernel answers a multishot arm with EINVAL; the
  /// loop then degrades to one-shot re-arming for that op.
  bool uring_multishot_accept_ok_ GUARDED_BY(io_thread_role) = true;
  bool uring_multishot_recv_ok_ GUARDED_BY(io_thread_role) = true;
  /// Keeps every SQE-referenced connection alive until its completions
  /// drain; CQE user_data pointers resolve here.
  std::unordered_map<Connection*, std::shared_ptr<Connection>> uring_conns_
      GUARDED_BY(io_thread_role);
  /// Logically closed connections awaiting completion drain.
  std::vector<std::shared_ptr<Connection>> uring_closing_
      GUARDED_BY(io_thread_role);
  /// Connections touched by this CQE batch (re-arm + finish once at
  /// batch end).
  std::vector<std::shared_ptr<Connection>> uring_rearm_
      GUARDED_BY(io_thread_role);

  /// Recycled frame bodies, connection buffers and recv chunks
  /// (internally synchronized: workers release, the IO thread acquires).
  FramePool body_pool_;

  /// Decoded frames awaiting a worker.
  mutable Mutex ready_mu_;
  CondVar ready_cv_;
  FrameQueue<Work> ready_ GUARDED_BY(ready_mu_);
  /// ready_.size() mirror readable without ready_mu_ (inline-dispatch
  /// gate, stats).
  std::atomic<uint64_t> ready_depth_{0};
  /// Frames handed to workers and not yet answered, across all
  /// connections (idle detection for compaction).
  std::atomic<uint64_t> inflight_frames_{0};

  /// Connections workers want the IO thread to re-examine.
  Mutex dirty_mu_;
  std::vector<std::shared_ptr<Connection>> dirty_ GUARDED_BY(dirty_mu_);
  /// IO-thread scratch the dirty list swaps into (capacity reuse).
  std::vector<std::shared_ptr<Connection>> dirty_scratch_
      GUARDED_BY(io_thread_role);

  // Inline fast-path state (IO thread only).
  uint32_t inline_budget_used_ GUARDED_BY(io_thread_role) = 0;
  /// This tick's clock reading for IoNowMs(); -1 until taken.
  int64_t io_now_ms_ GUARDED_BY(io_thread_role) = -1;
  WireRequest io_request_ GUARDED_BY(io_thread_role);
  WireResponse io_response_ GUARDED_BY(io_thread_role);

  /// Response bytes appended to connection out-buffers and not yet on
  /// the wire, across all connections (max_global_output_bytes).
  std::atomic<uint64_t> output_bytes_{0};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> admin_rejected_{0};
  std::atomic<uint64_t> admin_timeouts_{0};
  /// High-water mark of the ready-queue (frames extracted but not yet
  /// claimed by a worker): worker-pool saturation visibility.
  std::atomic<uint64_t> connections_queued_peak_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<uint64_t> inline_dispatched_{0};
  std::atomic<uint64_t> compactions_{0};
  /// NowMs() of the last completed compaction; -1 = never.
  std::atomic<int64_t> last_compaction_ms_{-1};
  /// NowMs() of the last ingested or answered frame (idle detection).
  std::atomic<int64_t> last_activity_ms_{0};

  /// Per-op metric objects: lock-free counters and a log-bucketed
  /// latency histogram. The hot path is a handful of relaxed atomic
  /// adds into per-thread slots -- no mutex, no allocation.
  struct OpMetrics {
    obs::Counter requests;
    obs::Counter errors;
    obs::LogHistogram latency_ns;
  };
  std::array<OpMetrics, kNumOpCodes> per_op_;
  /// Worker-path stage histograms: ready-queue wait (enqueue ->
  /// worker claim) and reply append/flush time (dispatch done ->
  /// response on the wire or queued).
  obs::LogHistogram queue_wait_ns_;
  obs::LogHistogram reply_ns_;
  /// Sheds by reason (index = ShedReason; kNone slot stays 0).
  std::array<obs::Counter, kNumShedReasons> shed_counters_;
  /// Retry-after hints attached to shed responses (milliseconds).
  obs::LogHistogram shed_retry_hint_ms_;

  /// Every metric family (cache, facade, server) for /metrics.
  obs::MetricsRegistry registry_;
};

}  // namespace watchman

#endif  // WATCHMAN_SERVER_SERVER_H_
