#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/errno_string.h"
#include "util/fault.h"

namespace watchman {
namespace {

using Clock = std::chrono::steady_clock;

/// SplitMix64: backoff jitter hashing (pure, no global state).
uint64_t JitterMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Equal jitter: spread `backoff` uniformly over [backoff/2, backoff],
/// deterministically from (seed, attempt). Seed 0 = no jitter.
int ApplyJitter(int backoff, int attempt, uint64_t jitter_seed) {
  if (jitter_seed == 0 || backoff <= 1) return backoff;
  const int half = backoff / 2;
  const uint64_t h =
      JitterMix(jitter_seed ^ (static_cast<uint64_t>(attempt) + 1) *
                                  0x9e3779b97f4a7c15ull);
  return half + static_cast<int>(
                    h % (static_cast<uint64_t>(backoff - half) + 1));
}

/// A per-process-instance jitter seed (never 0).
uint64_t FreshJitterSeed() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t tick = static_cast<uint64_t>(
      Clock::now().time_since_epoch().count());
  return JitterMix(tick ^ counter.fetch_add(1, std::memory_order_relaxed))
         | 1;
}

/// A time_point far enough out to mean "no deadline".
constexpr Clock::duration kForever = std::chrono::hours(24 * 365);

Clock::time_point DeadlineIn(int timeout_ms) {
  return Clock::now() + (timeout_ms > 0 ? std::chrono::milliseconds(timeout_ms)
                                        : kForever);
}

/// Waits for `events` on `fd` until `deadline`. OK when ready, IOError
/// on timeout or poll failure; POLLERR/POLLHUP count as ready (the
/// following recv/send/getsockopt reports the real error).
Status PollFd(int fd, short events, Clock::time_point deadline,
              const char* what) {
  while (true) {
    const auto remaining = deadline - Clock::now();
    if (remaining <= Clock::duration::zero()) {
      return Status::IOError(std::string("deadline exceeded waiting to ") +
                             what);
    }
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count();
    pollfd pfd{fd, events, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(ms > 60000 ? 60000 : ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + ErrnoString(errno));
    }
    if (ready > 0) return Status::OK();
  }
}

/// Sends all of `bytes` on the non-blocking `fd`, polling for
/// writability up to `deadline`. *sent reports how many bytes reached
/// the wire even on failure -- the redial logic must know whether the
/// daemon may have seen the request.
Status SendAllFd(int fd, std::string_view bytes, Clock::time_point deadline,
                 size_t* sent) {
  *sent = 0;
  while (*sent < bytes.size()) {
    const ssize_t n = FaultSend(fd, bytes.data() + *sent,
                                bytes.size() - *sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        WATCHMAN_RETURN_IF_ERROR(PollFd(fd, POLLOUT, deadline, "send"));
        continue;
      }
      return Status::IOError(std::string("send: ") + ErrnoString(errno));
    }
    *sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// One recv on the non-blocking `fd`, polling for readability up to
/// `deadline`. *n is 0 on orderly EOF.
Status RecvSomeFd(int fd, char* buf, size_t cap, Clock::time_point deadline,
                  size_t* n) {
  while (true) {
    const ssize_t got = FaultRecv(fd, buf, cap, 0);
    if (got >= 0) {
      *n = static_cast<size_t>(got);
      return Status::OK();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      WATCHMAN_RETURN_IF_ERROR(PollFd(fd, POLLIN, deadline, "recv"));
      continue;
    }
    return Status::IOError(std::string("recv: ") + ErrnoString(errno));
  }
}

/// One non-blocking connect attempt with a poll-enforced deadline.
/// Returns the connected fd (left non-blocking) or an error.
StatusOr<int> ConnectOnce(const sockaddr_in& addr,
                          const std::string& local_addr, int io_timeout_ms) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + ErrnoString(errno));
  }
  if (!local_addr.empty()) {
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_port = 0;  // ephemeral; only the address matters
    if (::inet_pton(AF_INET, local_addr.c_str(), &local.sin_addr) != 1) {
      ::close(fd);
      return Status::InvalidArgument("bad local address: " + local_addr);
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&local),
               sizeof(local)) != 0) {
      const Status status = Status::IOError(
          "bind " + local_addr + ": " + ErrnoString(errno));
      ::close(fd);
      return status;
    }
  }
  const auto deadline = DeadlineIn(io_timeout_ms);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const Status status =
        Status::IOError(std::string("connect: ") + ErrnoString(errno));
    ::close(fd);
    return status;
  }
  // EINPROGRESS (or instant success): wait for writability, then read
  // the final verdict off SO_ERROR.
  Status ready = PollFd(fd, POLLOUT, deadline, "connect");
  if (ready.ok()) {
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
      so_error = errno;
    }
    if (so_error != 0) {
      ready = Status::IOError(std::string("connect: ") +
                              ErrnoString(so_error));
    }
  }
  if (!ready.ok()) {
    ::close(fd);
    return ready;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Dials with retry and capped backoff per `options`.
StatusOr<int> DialFd(const WatchmanClient::Options& options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + options.host);
  }
  const int attempts =
      options.connect_attempts < 1 ? 1 : options.connect_attempts;
  std::string last_error = "no attempt made";
  const uint64_t jitter_seed = FreshJitterSeed();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const int backoff =
        DialBackoffMs(options.retry_backoff_ms, options.max_backoff_ms,
                      attempt, jitter_seed);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    StatusOr<int> fd =
        ConnectOnce(addr, options.local_addr, options.io_timeout_ms);
    if (fd.ok()) return fd;
    last_error = fd.status().message();
  }
  return Status::IOError("cannot reach " + options.host + ":" +
                         std::to_string(options.port) + " after " +
                         std::to_string(attempts) + " attempts (" +
                         last_error + ")");
}

/// True when resending the op after an ambiguous failure (the daemon
/// may or may not have processed the first copy) cannot corrupt caller
/// state: probes and offers are absorbed idempotently, invalidations
/// are not (a replay reports dropped=0 for a set that WAS dropped).
bool ReplaySafe(OpCode op) {
  switch (op) {
    case OpCode::kPing:
    case OpCode::kGet:
    case OpCode::kStats:
    case OpCode::kExecute:
    case OpCode::kCompact:
      return true;
    case OpCode::kInvalidate:
    case OpCode::kInvalidateRelation:
      return false;
  }
  return false;
}

// Shared response -> typed-result converters (both client flavours).

StatusOr<WatchmanClient::FetchResult> ToFetchResult(WireResponse&& response) {
  if (response.code != StatusCode::kOk) {
    return StatusFromWire(response.code, response.message);
  }
  return WatchmanClient::FetchResult{std::move(response.payload),
                                     response.cache_hit};
}

StatusOr<uint64_t> ToDropped(WireResponse&& response) {
  if (response.code != StatusCode::kOk) {
    return StatusFromWire(response.code, response.message);
  }
  return response.dropped;
}

StatusOr<WireStats> ToStats(WireResponse&& response) {
  if (response.code != StatusCode::kOk) {
    return StatusFromWire(response.code, response.message);
  }
  return std::move(response.stats);
}

}  // namespace

int DialBackoffMs(int base_ms, int max_ms, int attempt,
                  uint64_t jitter_seed) {
  if (attempt <= 0 || base_ms <= 0) return 0;
  if (max_ms < base_ms) max_ms = base_ms;
  long long backoff = base_ms;
  for (int i = 1; i < attempt; ++i) {
    backoff *= 2;
    if (backoff >= max_ms) {
      backoff = max_ms;
      break;
    }
  }
  const int capped = backoff >= max_ms ? max_ms : static_cast<int>(backoff);
  return ApplyJitter(capped, attempt, jitter_seed);
}

int ShedBackoffMs(int hint_ms, int max_ms, int attempt,
                  uint64_t jitter_seed) {
  if (max_ms < 1) max_ms = 1;
  long long backoff = hint_ms > 0 ? hint_ms : 10;
  for (int i = 0; i < attempt; ++i) {
    backoff *= 2;
    if (backoff >= max_ms) break;
  }
  const int capped = backoff >= max_ms ? max_ms : static_cast<int>(backoff);
  return ApplyJitter(capped, attempt, jitter_seed);
}

WatchmanClient::WatchmanClient(Options options)
    : options_(std::move(options)), shed_jitter_seed_(FreshJitterSeed()) {}

WatchmanClient::~WatchmanClient() {
  MutexLock lock(mu_);
  CloseLocked();
}

StatusOr<std::unique_ptr<WatchmanClient>> WatchmanClient::Connect(
    const Options& options) {
  // alloc-ok: one client object per Connect() (setup, not per request)
  std::unique_ptr<WatchmanClient> client(new WatchmanClient(options));
  MutexLock lock(client->mu_);
  WATCHMAN_RETURN_IF_ERROR(client->Dial());
  return client;
}

void WatchmanClient::CloseLocked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

Status WatchmanClient::Dial() {
  CloseLocked();
  StatusOr<int> fd = DialFd(options_);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  return Status::OK();
}

StatusOr<std::string> WatchmanClient::ReadFrameBody(
    Clock::time_point deadline) {
  char chunk[64 * 1024];
  while (true) {
    std::string_view body;
    size_t frame_size = 0;
    StatusOr<bool> extracted = ExtractFrame(inbuf_, options_.max_frame_bytes,
                                            &body, &frame_size);
    if (!extracted.ok()) return extracted.status();
    if (*extracted) {
      std::string out(body);
      inbuf_.erase(0, frame_size);
      return out;
    }
    size_t n = 0;
    WATCHMAN_RETURN_IF_ERROR(
        RecvSomeFd(fd_, chunk, sizeof(chunk), deadline, &n));
    if (n == 0) {
      return Status::IOError("connection closed by the daemon");
    }
    inbuf_.append(chunk, n);
  }
}

StatusOr<WireResponse> WatchmanClient::RoundTrip(WireRequest& request) {
  MutexLock lock(mu_);
  // Shed-retry loop: a kShedRetryLater answer means the daemon refused
  // the request BEFORE executing it, so retrying (with a fresh id)
  // after the hinted backoff is always safe -- even for INVALIDATE.
  for (int attempt = 0;; ++attempt) {
    StatusOr<WireResponse> response = RoundTripLocked(request);
    if (!response.ok() ||
        response->code != StatusCode::kShedRetryLater ||
        attempt >= options_.shed_retries) {
      return response;
    }
    const int backoff =
        ShedBackoffMs(static_cast<int>(response->retry_after_ms),
                      options_.max_shed_backoff_ms, attempt,
                      shed_jitter_seed_);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

StatusOr<WireResponse> WatchmanClient::RoundTripLocked(WireRequest& request) {
  request.request_id = ++next_request_id_;
  const std::string frame = EncodeRequest(request);
  // One redial: a pooled connection may have died since the last call.
  // Redial is allowed only when the failure provably preceded any byte
  // reaching the wire, or the op's replay is harmless (see ReplaySafe).
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) {
      WATCHMAN_RETURN_IF_ERROR(Dial());
    }
    const auto deadline = DeadlineIn(options_.io_timeout_ms);
    size_t sent = 0;
    Status sent_status = SendAllFd(fd_, frame, deadline, &sent);
    StatusOr<std::string> body = sent_status.ok()
                                     ? ReadFrameBody(deadline)
                                     : StatusOr<std::string>(sent_status);
    if (!body.ok()) {
      CloseLocked();
      if (attempt == 0 && (sent == 0 || ReplaySafe(request.op))) continue;
      if (sent != 0 && !ReplaySafe(request.op)) {
        return Status::IOError(
            std::string("connection failed after '") +
            OpCodeName(request.op) +
            "' may have reached the daemon; not retried because the op "
            "is not replay-safe (" +
            body.status().message() + ")");
      }
      return body.status();
    }
    StatusOr<WireResponse> response = DecodeResponse(*body);
    if (!response.ok()) {
      // The stream is desynchronized; don't trust the connection.
      CloseLocked();
      return response.status();
    }
    const bool matches = response->op == request.op &&
                         response->request_id == request.request_id;
    if (!matches) {
      // A mismatched frame means the stream state is unknown either
      // way. But when the daemon is reporting an error it could not
      // attribute (framing-level failures echo ping/0), surface ITS
      // status instead of masking it behind an op-mismatch Internal.
      CloseLocked();
      if (response->code != StatusCode::kOk) return response;
      return Status::Internal(
          std::string("response mismatch: sent ") + OpCodeName(request.op) +
          " id " + std::to_string(request.request_id) + ", got " +
          OpCodeName(response->op) + " id " +
          std::to_string(response->request_id));
    }
    return response;
  }
  return Status::Internal("unreachable");
}

Status WatchmanClient::Ping() {
  WireRequest request;
  request.op = OpCode::kPing;
  StatusOr<WireResponse> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return StatusFromWire(response->code, response->message);
}

StatusOr<WatchmanClient::FetchResult> WatchmanClient::Get(
    const std::string& query_text) {
  WireRequest request;
  request.op = OpCode::kGet;
  request.query_text = query_text;
  StatusOr<WireResponse> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return ToFetchResult(std::move(*response));
}

StatusOr<WatchmanClient::FetchResult> WatchmanClient::Execute(
    const std::string& query_text) {
  WireRequest request;
  request.op = OpCode::kExecute;
  request.query_text = query_text;
  StatusOr<WireResponse> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return ToFetchResult(std::move(*response));
}

StatusOr<WatchmanClient::FetchResult> WatchmanClient::Execute(
    const std::string& query_text, const std::string& fill_payload,
    uint64_t fill_cost, std::vector<std::string> fill_relations) {
  WireRequest request;
  request.op = OpCode::kExecute;
  request.query_text = query_text;
  request.has_fill = true;
  request.fill_payload = fill_payload;
  request.fill_cost = fill_cost;
  request.fill_relations = std::move(fill_relations);
  StatusOr<WireResponse> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return ToFetchResult(std::move(*response));
}

StatusOr<uint64_t> WatchmanClient::Invalidate(const std::string& query_text) {
  WireRequest request;
  request.op = OpCode::kInvalidate;
  request.query_text = query_text;
  StatusOr<WireResponse> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return ToDropped(std::move(*response));
}

StatusOr<uint64_t> WatchmanClient::InvalidateRelation(
    const std::string& relation) {
  WireRequest request;
  request.op = OpCode::kInvalidateRelation;
  request.relation = relation;
  StatusOr<WireResponse> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return ToDropped(std::move(*response));
}

StatusOr<WireStats> WatchmanClient::Stats() {
  WireRequest request;
  request.op = OpCode::kStats;
  StatusOr<WireResponse> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return ToStats(std::move(*response));
}

Status WatchmanClient::Compact() {
  WireRequest request;
  request.op = OpCode::kCompact;
  StatusOr<WireResponse> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return StatusFromWire(response->code, response->message);
}

// --------------------------------------------------- MultiplexedClient

MultiplexedClient::MultiplexedClient(Options options)
    : options_(std::move(options)), shed_jitter_seed_(FreshJitterSeed()) {
  MutexLock lock(pending_mu_);
  // Room for a handful of concurrent waiters up front, so a steady
  // thread count never grows the list on the request path.
  followers_.reserve(8);
}

StatusOr<std::unique_ptr<MultiplexedClient>> MultiplexedClient::Connect(
    const Options& options) {
  StatusOr<int> fd = DialFd(options);
  if (!fd.ok()) return fd.status();
  // alloc-ok: one client object per Connect() (setup, not per request)
  std::unique_ptr<MultiplexedClient> client(new MultiplexedClient(options));
  client->fd_ = *fd;
  return client;
}

MultiplexedClient::~MultiplexedClient() {
  Break(Status::IOError("client destroyed"));
  ::close(fd_);
}

void MultiplexedClient::Break(const Status& status) {
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall>> orphans;
  {
    MutexLock lock(pending_mu_);
    if (broken_.ok()) broken_ = status;
    orphans.swap(pending_);
  }
  // The connection is dead for good: shutting it down wakes a leader
  // blocked in poll, which then finds its call failed below.
  ::shutdown(fd_, SHUT_RDWR);
  for (auto& [id, call] : orphans) {
    MutexLock lock(call->mu);
    if (call->done) continue;
    call->error = status;
    call->done = true;
    call->cv.NotifyAll();
  }
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartRequest(
    WireRequest& request) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  request.request_id = id;
  // One waiter record per pipelined request -- client-side only; the
  // daemon's steady-state request path stays allocation-free.
  // alloc-ok: client-side per-request waiter record
  auto call = std::make_shared<PendingCall>();
  {
    MutexLock lock(pending_mu_);
    if (!broken_.ok()) return broken_;
    pending_.emplace(id, call);
  }
  {
    MutexLock lock(send_mu_);
    AppendRequest(request, &outbuf_);
  }
  return id;
}

Status MultiplexedClient::Flush() {
  // flush_mu_ serializes socket writers; send_mu_ is held only for the
  // batch swap, so StartX() on other threads keeps buffering while this
  // thread is (possibly slowly) driving the socket.
  MutexLock io_lock(flush_mu_);
  {
    // Sticky-failure fast path: flushes queued behind the send that
    // broke the transport must not each burn another io_timeout_ms on
    // the dead socket.
    MutexLock lock(pending_mu_);
    if (!broken_.ok()) return broken_;
  }
  std::string batch;
  {
    MutexLock lock(send_mu_);
    batch.swap(outbuf_);
  }
  if (batch.empty()) return Status::OK();
  const auto deadline = DeadlineIn(options_.io_timeout_ms);
  size_t sent = 0;
  const Status status = SendAllFd(fd_, batch, deadline, &sent);
  if (!status.ok()) {
    Break(status);
    return status;
  }
  return Status::OK();
}

StatusOr<WireResponse> MultiplexedClient::Await(Ticket ticket) {
  WATCHMAN_RETURN_IF_ERROR(Flush());
  std::shared_ptr<PendingCall> call;
  {
    MutexLock lock(pending_mu_);
    auto it = pending_.find(ticket);
    if (it == pending_.end()) {
      if (!broken_.ok()) return broken_;
      return Status::InvalidArgument("unknown or already-awaited ticket " +
                                     std::to_string(ticket));
    }
    call = it->second;
  }
  WaitFor(call.get(), DeadlineIn(options_.io_timeout_ms));
  {
    MutexLock lock(pending_mu_);
    pending_.erase(ticket);
  }
  // Checked after the erase: a response that landed between the timed
  // wait and the erase still counts.
  MutexLock lock(call->mu);
  if (!call->done) {
    return Status::IOError("deadline exceeded awaiting response " +
                           std::to_string(ticket));
  }
  if (!call->error.ok()) return call->error;
  return std::move(call->response);
}

// Leader/followers. The thread holding the read role reads the socket
// and routes every response to its waiter; the other waiters sleep on
// their own call's condition variable. A leader whose call completes
// (or whose deadline passes) gives the role up and promotes one
// follower, so an idle connection has no reader at all and a blocking
// round trip wakes nobody but its caller.
void MultiplexedClient::WaitFor(PendingCall* call,
                                Clock::time_point deadline) {
  bool listed = false;
  while (true) {
    if (read_mu_.TryLock()) {
      if (listed) RemoveFollower(call);
      Lead(call, deadline);
      read_mu_.Unlock();
      PromoteFollower();
      return;
    }
    if (!listed) {
      {
        MutexLock lock(call->mu);
        if (call->done) return;
      }
      // List this call, then try for the role once more: a leader that
      // gave the role up after the TryLock above failed promotes from
      // followers_, which may not have held this call yet.
      MutexLock lock(pending_mu_);
      followers_.push_back(call);
      listed = true;
      continue;
    }
    {
      MutexLock lock(call->mu);
      while (!call->done && !call->promoted) {
        if (call->cv.WaitUntil(call->mu, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }
    // Off the list first: after that no leader can promote this call,
    // so the flags read next are final.
    RemoveFollower(call);
    listed = false;
    bool promoted;
    bool done;
    {
      MutexLock lock(call->mu);
      promoted = call->promoted;
      call->promoted = false;
      done = call->done;
    }
    if (done || Clock::now() >= deadline) {
      // The role was handed to a waiter that no longer needs it.
      if (promoted) PromoteFollower();
      return;
    }
  }
}

void MultiplexedClient::Lead(PendingCall* call, Clock::time_point deadline) {
  char chunk[64 * 1024];
  while (true) {
    const Status routed = RouteFrames();
    if (!routed.ok()) {
      Break(routed);
      return;
    }
    {
      MutexLock lock(call->mu);
      if (call->done) return;
    }
    const Status ready = PollFd(fd_, POLLIN, deadline, "recv");
    if (!ready.ok()) {
      // A deadline fails this call only: the connection stays usable
      // and the next leader resumes from the bytes already buffered.
      if (Clock::now() < deadline) Break(ready);
      return;
    }
    const ssize_t n = FaultRecv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      Break(Status::IOError("connection closed by the daemon"));
      return;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      Break(Status::IOError(std::string("recv: ") + ErrnoString(errno)));
      return;
    }
    inbuf_.append(chunk, static_cast<size_t>(n));
  }
}

Status MultiplexedClient::RouteFrames() {
  // Drain every complete frame; the consumed prefix is erased once per
  // batch (a per-frame erase would memmove the whole buffer once per
  // response on pipelined bursts).
  size_t consumed = 0;
  Status status;
  while (true) {
    std::string_view body;
    size_t frame_size = 0;
    StatusOr<bool> extracted =
        ExtractFrame(std::string_view(inbuf_).substr(consumed),
                     options_.max_frame_bytes, &body, &frame_size);
    if (!extracted.ok()) {
      status = extracted.status();
      break;
    }
    if (!*extracted) break;
    StatusOr<WireResponse> response = DecodeResponse(body);
    consumed += frame_size;
    if (!response.ok()) {
      // Undecodable frame: the stream is desynchronized beyond repair.
      status = response.status();
      break;
    }
    std::shared_ptr<PendingCall> call;
    {
      MutexLock lock(pending_mu_);
      auto it = pending_.find(response->request_id);
      if (it != pending_.end()) call = it->second;
    }
    if (call != nullptr) {
      MutexLock lock(call->mu);
      call->response = std::move(*response);
      call->done = true;
      call->cv.NotifyOne();
    } else if (response->code != StatusCode::kOk &&
               response->request_id == 0) {
      // A framing-level error the daemon could not attribute to one
      // request (id 0): the connection is going away, fail everyone
      // with the daemon's own message.
      status = StatusFromWire(response->code, response->message);
      break;
    }
    // A stray OK response (e.g. the waiter timed out and left) is
    // dropped on the floor.
  }
  if (consumed > 0) inbuf_.erase(0, consumed);
  return status;
}

void MultiplexedClient::RemoveFollower(PendingCall* call) {
  MutexLock lock(pending_mu_);
  for (size_t i = 0; i < followers_.size(); ++i) {
    if (followers_[i] == call) {
      followers_[i] = followers_.back();
      followers_.pop_back();
      return;
    }
  }
}

void MultiplexedClient::PromoteFollower() {
  MutexLock lock(pending_mu_);
  while (!followers_.empty()) {
    PendingCall* next = followers_.back();
    followers_.pop_back();
    MutexLock call_lock(next->mu);
    // A follower whose response already arrived is awake anyway.
    if (next->done) continue;
    next->promoted = true;
    next->cv.NotifyOne();
    return;
  }
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartPing() {
  WireRequest request;
  request.op = OpCode::kPing;
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartGet(
    const std::string& query_text) {
  WireRequest request;
  request.op = OpCode::kGet;
  request.query_text = query_text;
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartExecute(
    const std::string& query_text) {
  WireRequest request;
  request.op = OpCode::kExecute;
  request.query_text = query_text;
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartExecute(
    const std::string& query_text, const std::string& fill_payload,
    uint64_t fill_cost, std::vector<std::string> fill_relations) {
  WireRequest request;
  request.op = OpCode::kExecute;
  request.query_text = query_text;
  request.has_fill = true;
  request.fill_payload = fill_payload;
  request.fill_cost = fill_cost;
  request.fill_relations = std::move(fill_relations);
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartInvalidate(
    const std::string& query_text) {
  WireRequest request;
  request.op = OpCode::kInvalidate;
  request.query_text = query_text;
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartInvalidateRelation(
    const std::string& relation) {
  WireRequest request;
  request.op = OpCode::kInvalidateRelation;
  request.relation = relation;
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartStats() {
  WireRequest request;
  request.op = OpCode::kStats;
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartCompact() {
  WireRequest request;
  request.op = OpCode::kCompact;
  return StartRequest(request);
}

// Start + Await with the same shed-retry semantics as the blocking
// client: each retry re-encodes under a fresh id after the hinted,
// jittered backoff. Callers driving StartX()/Await() directly see the
// shed response verbatim and schedule their own retries.
StatusOr<WireResponse> MultiplexedClient::CallBlocking(
    const std::function<StatusOr<Ticket>()>& start) {
  for (int attempt = 0;; ++attempt) {
    StatusOr<Ticket> ticket = start();
    if (!ticket.ok()) return ticket.status();
    StatusOr<WireResponse> response = Await(*ticket);
    if (!response.ok() ||
        response->code != StatusCode::kShedRetryLater ||
        attempt >= options_.shed_retries) {
      return response;
    }
    const int backoff =
        ShedBackoffMs(static_cast<int>(response->retry_after_ms),
                      options_.max_shed_backoff_ms, attempt,
                      shed_jitter_seed_);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

Status MultiplexedClient::Ping() {
  StatusOr<WireResponse> response =
      CallBlocking([this] { return StartPing(); });
  if (!response.ok()) return response.status();
  return StatusFromWire(response->code, response->message);
}

StatusOr<MultiplexedClient::FetchResult> MultiplexedClient::Get(
    const std::string& query_text) {
  StatusOr<WireResponse> response =
      CallBlocking([&] { return StartGet(query_text); });
  if (!response.ok()) return response.status();
  return ToFetchResult(std::move(*response));
}

StatusOr<MultiplexedClient::FetchResult> MultiplexedClient::Execute(
    const std::string& query_text) {
  StatusOr<WireResponse> response =
      CallBlocking([&] { return StartExecute(query_text); });
  if (!response.ok()) return response.status();
  return ToFetchResult(std::move(*response));
}

StatusOr<MultiplexedClient::FetchResult> MultiplexedClient::Execute(
    const std::string& query_text, const std::string& fill_payload,
    uint64_t fill_cost, std::vector<std::string> fill_relations) {
  StatusOr<WireResponse> response = CallBlocking([&] {
    return StartExecute(query_text, fill_payload, fill_cost, fill_relations);
  });
  if (!response.ok()) return response.status();
  return ToFetchResult(std::move(*response));
}

StatusOr<uint64_t> MultiplexedClient::Invalidate(
    const std::string& query_text) {
  StatusOr<WireResponse> response =
      CallBlocking([&] { return StartInvalidate(query_text); });
  if (!response.ok()) return response.status();
  return ToDropped(std::move(*response));
}

StatusOr<uint64_t> MultiplexedClient::InvalidateRelation(
    const std::string& relation) {
  StatusOr<WireResponse> response =
      CallBlocking([&] { return StartInvalidateRelation(relation); });
  if (!response.ok()) return response.status();
  return ToDropped(std::move(*response));
}

StatusOr<WireStats> MultiplexedClient::Stats() {
  StatusOr<WireResponse> response =
      CallBlocking([this] { return StartStats(); });
  if (!response.ok()) return response.status();
  return ToStats(std::move(*response));
}

Status MultiplexedClient::Compact() {
  StatusOr<WireResponse> response =
      CallBlocking([this] { return StartCompact(); });
  if (!response.ok()) return response.status();
  return StatusFromWire(response->code, response->message);
}

// ------------------------------------------------------ RemoteWatchman

RemoteWatchman::RemoteWatchman(std::unique_ptr<WatchmanClient> client,
                               Watchman::Executor executor)
    : client_(std::move(client)), executor_(std::move(executor)) {}

StatusOr<std::unique_ptr<RemoteWatchman>> RemoteWatchman::Connect(
    const WatchmanClient::Options& options, Watchman::Executor executor) {
  StatusOr<std::unique_ptr<WatchmanClient>> client =
      WatchmanClient::Connect(options);
  if (!client.ok()) return client.status();
  // alloc-ok: one wrapper per Connect() (setup, not per request)
  return std::make_unique<RemoteWatchman>(std::move(*client),
                                          std::move(executor));
}

StatusOr<std::string> RemoteWatchman::Execute(const std::string& query_text) {
  StatusOr<WatchmanClient::FetchResult> probe = client_->Get(query_text);
  if (probe.ok()) return std::move(probe->payload);
  if (probe.status().code() != StatusCode::kNotFound) return probe.status();

  // Miss: materialize locally, then offer the result to the daemon. The
  // daemon may answer with another client's concurrently filled set --
  // same contract as the facade's single-flight.
  StatusOr<Watchman::ExecutionResult> executed = executor_(query_text);
  if (!executed.ok()) return executed.status();
  StatusOr<WatchmanClient::FetchResult> filled =
      client_->Execute(query_text, executed->payload, executed->cost,
                       executed->relations);
  if (!filled.ok()) {
    // The offer failed (daemon restarted, connection dropped, ...), but
    // the execution succeeded: serve the fresh result anyway, exactly
    // like the local facade does when a cache offer cannot land.
    return std::move(executed->payload);
  }
  return std::move(filled->payload);
}

}  // namespace watchman
