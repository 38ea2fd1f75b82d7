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
StatusOr<int> DialFd(const MultiplexedClient::Options& options) {
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

WireRequest MakeRequest(OpCode op, const std::string& query_text = {}) {
  WireRequest request;
  request.op = op;
  request.query_text = query_text;
  return request;
}

WireRequest MakeFillRequest(const std::string& query_text,
                            const std::string& fill_payload,
                            uint64_t fill_cost,
                            std::vector<std::string> fill_relations) {
  WireRequest request = MakeRequest(OpCode::kExecute, query_text);
  request.has_fill = true;
  request.fill_payload = fill_payload;
  request.fill_cost = fill_cost;
  request.fill_relations = std::move(fill_relations);
  return request;
}

WireRequest MakeRelationRequest(const std::string& relation) {
  WireRequest request = MakeRequest(OpCode::kInvalidateRelation);
  request.relation = relation;
  return request;
}

// Response -> typed-result converters for the blocking wrappers.

Status ToStatus(const StatusOr<WireResponse>& response) {
  if (!response.ok()) return response.status();
  return StatusFromWire(response->code, response->message);
}

StatusOr<MultiplexedClient::FetchResult> ToFetchResult(
    StatusOr<WireResponse>&& response) {
  WATCHMAN_RETURN_IF_ERROR(ToStatus(response));
  return MultiplexedClient::FetchResult{std::move(response->payload),
                                        response->cache_hit};
}

StatusOr<uint64_t> ToDropped(StatusOr<WireResponse>&& response) {
  WATCHMAN_RETURN_IF_ERROR(ToStatus(response));
  return response->dropped;
}

StatusOr<WireStats> ToStats(StatusOr<WireResponse>&& response) {
  WATCHMAN_RETURN_IF_ERROR(ToStatus(response));
  return std::move(response->stats);
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

MultiplexedClient::MultiplexedClient(Options options, int fd)
    : options_(std::move(options)),
      recv_fd_(fd),
      send_fd_(fd),
      shed_jitter_seed_(FreshJitterSeed()) {
  MutexLock lock(pending_mu_);
  // Room for a handful of concurrent waiters up front, so a steady
  // thread count never grows the list on the request path.
  followers_.reserve(8);
}

StatusOr<std::unique_ptr<MultiplexedClient>> MultiplexedClient::Connect(
    const Options& options) {
  StatusOr<int> fd = DialFd(options);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<MultiplexedClient>(
      new MultiplexedClient(options, *fd));  // alloc-ok: once per Connect()
}

MultiplexedClient::~MultiplexedClient() { ::close(send_fd_); }

void MultiplexedClient::MarkBroken(int fd, const Status& status,
                                   bool transport) {
  {
    MutexLock lock(pending_mu_);
    if (!broken_.ok()) return;
    broken_ = status;
    broken_transport_ = transport;
  }
  ::shutdown(fd, SHUT_RDWR);
}

void MultiplexedClient::FailPending() {
  MutexLock lock(pending_mu_);
  for (auto& [id, call] : pending_) {
    MutexLock call_lock(call->mu);
    if (call->done) continue;
    call->error = broken_;
    if (broken_transport_) {
      call->loss = sent_ > call->offset ? Loss::kSent : Loss::kUnsent;
    }
    call->done = true;
    call->cv.NotifyAll();
  }
}

Status MultiplexedClient::Redial() {
  MutexLock redial_lock(redial_mu_);
  {
    MutexLock lock(pending_mu_);
    if (broken_.ok()) return Status::OK();  // another start redialed
  }
  StatusOr<int> fd = DialFd(options_);
  if (!fd.ok()) return fd.status();
  int old_fd;
  {
    MutexLock read_lock(read_mu_);
    MutexLock flush_lock(flush_mu_);
    MutexLock send_lock(send_mu_);
    MutexLock lock(pending_mu_);
    old_fd = send_fd_;
    recv_fd_ = send_fd_ = *fd;
    inbuf_.clear();
    // Frames still buffered belong to calls the failure already failed.
    outbuf_.clear();
    sent_ = buffered_ = 0;
    broken_ = Status::OK();
    broken_transport_ = false;
  }
  ::close(old_fd);
  return Status::OK();
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartRequest(
    WireRequest& request) {
  request.request_id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // One waiter record per pipelined request -- client-side only; the
  // daemon's steady-state request path stays allocation-free.
  // alloc-ok: client-side per-request waiter record
  auto call = std::make_shared<PendingCall>();
  if (!Buffer(request, call).ok()) {
    WATCHMAN_RETURN_IF_ERROR(Redial());
    WATCHMAN_RETURN_IF_ERROR(Buffer(request, call));
  }
  return request.request_id;
}

Status MultiplexedClient::Buffer(const WireRequest& request,
                                 const std::shared_ptr<PendingCall>& call) {
  // send_mu_ is held from the registration to the append, so a redial
  // cannot slip between them and carry onto the new connection a frame
  // whose call the failure has already failed.
  MutexLock send_lock(send_mu_);
  {
    MutexLock lock(pending_mu_);
    if (!broken_.ok()) return broken_;
    call->offset = buffered_;
    pending_.emplace(request.request_id, call);
  }
  const size_t before = outbuf_.size();
  AppendRequest(request, &outbuf_);
  buffered_ += outbuf_.size() - before;
  return Status::OK();
}

Status MultiplexedClient::Flush() {
  // flush_mu_ serializes socket writers; send_mu_ is held only for the
  // batch swap, so StartX() on other threads keeps buffering while this
  // thread is (possibly slowly) driving the socket.
  MutexLock io_lock(flush_mu_);
  {
    // A failed connection sends nothing more, and flushes queued behind
    // the send that broke it do not each burn another io_timeout_ms.
    MutexLock lock(pending_mu_);
    if (!broken_.ok()) return broken_;
  }
  std::string batch;
  {
    MutexLock lock(send_mu_);
    batch.swap(outbuf_);
  }
  if (batch.empty()) return Status::OK();
  size_t sent = 0;
  const Status status =
      SendAllFd(send_fd_, batch, DeadlineIn(options_.io_timeout_ms), &sent);
  sent_ += sent;
  if (!status.ok()) {
    MarkBroken(send_fd_, status, /*transport=*/true);
    FailPending();
  }
  return status;
}

StatusOr<WireResponse> MultiplexedClient::AwaitCall(Ticket ticket,
                                                    Loss* loss) {
  // A failed flush fails the calls still waiting, this one included, so
  // the outcome is read from the call below either way.
  (void)Flush();
  std::shared_ptr<PendingCall> call;
  {
    MutexLock lock(pending_mu_);
    auto it = pending_.find(ticket);
    if (it == pending_.end()) {
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
  if (loss != nullptr) *loss = call->loss;
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
  Status failure;
  bool reported = false;
  while (true) {
    failure = RouteFrames(&reported);
    if (!failure.ok()) break;
    {
      MutexLock lock(call->mu);
      if (call->done) return;
    }
    failure = PollFd(recv_fd_, POLLIN, deadline, "recv");
    if (!failure.ok()) {
      // A deadline fails this call only: the connection stays usable
      // and the next leader resumes from the bytes already buffered.
      if (Clock::now() >= deadline) return;
      break;
    }
    const ssize_t n = FaultRecv(recv_fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      inbuf_.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      failure = Status::IOError("connection closed by the daemon");
      break;
    } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      failure = Status::IOError(std::string("recv: ") + ErrnoString(errno));
      break;
    }
  }
  // The read role is kept until every call is failed, so no redial can
  // replace the socket in between.
  MarkBroken(recv_fd_, failure, /*transport=*/!reported);
  MutexLock lock(flush_mu_);
  FailPending();
}

Status MultiplexedClient::RouteFrames(bool* reported) {
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
      // A call a failure has already failed keeps that outcome.
      if (!call->done) {
        call->response = std::move(*response);
        call->done = true;
        call->cv.NotifyOne();
      }
    } else if (response->code != StatusCode::kOk &&
               response->request_id == 0) {
      // A framing-level error the daemon could not attribute to one
      // request (id 0): the connection is going away, fail everyone
      // with the daemon's own message.
      status = StatusFromWire(response->code, response->message);
      *reported = true;
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
  return StartRequest(MakeRequest(OpCode::kPing));
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartGet(
    const std::string& query_text) {
  return StartRequest(MakeRequest(OpCode::kGet, query_text));
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartExecute(
    const std::string& query_text) {
  return StartRequest(MakeRequest(OpCode::kExecute, query_text));
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartExecute(
    const std::string& query_text, const std::string& fill_payload,
    uint64_t fill_cost, std::vector<std::string> fill_relations) {
  WireRequest request = MakeFillRequest(query_text, fill_payload, fill_cost,
                                        std::move(fill_relations));
  return StartRequest(request);
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartInvalidate(
    const std::string& query_text) {
  return StartRequest(MakeRequest(OpCode::kInvalidate, query_text));
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartInvalidateRelation(
    const std::string& relation) {
  return StartRequest(MakeRelationRequest(relation));
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartStats() {
  return StartRequest(MakeRequest(OpCode::kStats));
}

StatusOr<MultiplexedClient::Ticket> MultiplexedClient::StartCompact() {
  return StartRequest(MakeRequest(OpCode::kCompact));
}

// A shed answer is retried under a fresh id after the hinted, jittered
// backoff: always safe, the daemon refused the request before executing
// it. A deadline or a status the daemon reported ends the call: the
// connection may be healthy and shared.
StatusOr<WireResponse> MultiplexedClient::Call(WireRequest&& request) {
  bool resent = false;
  int shed_attempt = 0;
  while (true) {
    StatusOr<Ticket> ticket = StartRequest(request);
    if (!ticket.ok()) return ticket.status();
    Loss loss = Loss::kNone;
    StatusOr<WireResponse> response = AwaitCall(*ticket, &loss);
    if (!response.ok()) {
      if (loss == Loss::kNone || resent) return response;
      if (loss == Loss::kSent && !ReplaySafe(request.op)) {
        return Status::IOError(
            std::string("connection failed after '") +
            OpCodeName(request.op) +
            "' may have reached the daemon; not retried because the op "
            "is not replay-safe (" +
            response.status().message() + ")");
      }
      resent = true;
      continue;
    }
    if (response->code != StatusCode::kShedRetryLater ||
        shed_attempt >= options_.shed_retries) {
      return response;
    }
    const int backoff =
        ShedBackoffMs(static_cast<int>(response->retry_after_ms),
                      options_.max_shed_backoff_ms, shed_attempt++,
                      shed_jitter_seed_);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

Status MultiplexedClient::Ping() {
  return ToStatus(Call(MakeRequest(OpCode::kPing)));
}

StatusOr<MultiplexedClient::FetchResult> MultiplexedClient::Get(
    const std::string& query_text) {
  return ToFetchResult(Call(MakeRequest(OpCode::kGet, query_text)));
}

StatusOr<MultiplexedClient::FetchResult> MultiplexedClient::Execute(
    const std::string& query_text) {
  return ToFetchResult(Call(MakeRequest(OpCode::kExecute, query_text)));
}

StatusOr<MultiplexedClient::FetchResult> MultiplexedClient::Execute(
    const std::string& query_text, const std::string& fill_payload,
    uint64_t fill_cost, std::vector<std::string> fill_relations) {
  WireRequest request = MakeFillRequest(query_text, fill_payload, fill_cost,
                                        std::move(fill_relations));
  return ToFetchResult(Call(std::move(request)));
}

StatusOr<uint64_t> MultiplexedClient::Invalidate(
    const std::string& query_text) {
  return ToDropped(Call(MakeRequest(OpCode::kInvalidate, query_text)));
}

StatusOr<uint64_t> MultiplexedClient::InvalidateRelation(
    const std::string& relation) {
  return ToDropped(Call(MakeRelationRequest(relation)));
}

StatusOr<WireStats> MultiplexedClient::Stats() {
  return ToStats(Call(MakeRequest(OpCode::kStats)));
}

Status MultiplexedClient::Compact() {
  return ToStatus(Call(MakeRequest(OpCode::kCompact)));
}

// ------------------------------------------------------ RemoteWatchman

RemoteWatchman::RemoteWatchman(std::unique_ptr<MultiplexedClient> client,
                               Watchman::Executor executor)
    : client_(std::move(client)), executor_(std::move(executor)) {}

StatusOr<std::unique_ptr<RemoteWatchman>> RemoteWatchman::Connect(
    const MultiplexedClient::Options& options, Watchman::Executor executor) {
  StatusOr<std::unique_ptr<MultiplexedClient>> client =
      MultiplexedClient::Connect(options);
  if (!client.ok()) return client.status();
  // alloc-ok: one wrapper per Connect() (setup, not per request)
  return std::make_unique<RemoteWatchman>(std::move(*client),
                                          std::move(executor));
}

StatusOr<std::string> RemoteWatchman::Execute(const std::string& query_text) {
  StatusOr<MultiplexedClient::FetchResult> probe = client_->Get(query_text);
  if (probe.ok()) return std::move(probe->payload);
  if (probe.status().code() != StatusCode::kNotFound) return probe.status();

  // Miss: materialize locally, then offer the result to the daemon. The
  // daemon may answer with another client's concurrently filled set --
  // same contract as the facade's single-flight.
  StatusOr<Watchman::ExecutionResult> executed = executor_(query_text);
  if (!executed.ok()) return executed.status();
  StatusOr<MultiplexedClient::FetchResult> filled =
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
