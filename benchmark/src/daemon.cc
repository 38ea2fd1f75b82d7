#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "util/errno_string.h"

extern char** environ;

namespace watchman::e2e {
namespace {

constexpr int kSocketTimeoutS = 10;

sockaddr_in Loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// Connected blocking loopback socket with receive/send deadlines.
StatusOr<int> Dial(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket: " + ErrnoString(errno));
  const sockaddr_in addr = Loopback(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status error = Status::IOError("connect: " + ErrnoString(errno));
    ::close(fd);
    return error;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{kSocketTimeoutS, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return fd;
}

/// A loopback port nobody listens on right now (the daemon binds it a
/// moment later; Start() retries if another process won the race).
StatusOr<uint16_t> FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket: " + ErrnoString(errno));
  sockaddr_in addr = Loopback(0);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status error = Status::IOError("bind: " + ErrnoString(errno));
    ::close(fd);
    return error;
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

double ParseLe(const std::string& labels) {
  const size_t at = labels.find("le=\"");
  if (at == std::string::npos) return NAN;
  const std::string text =
      labels.substr(at + 4, labels.find('"', at + 4) - (at + 4));
  return text == "+Inf" ? INFINITY : std::stod(text);
}

/// Cumulative count at `le` of a sparse cumulative bucket list.
double CumulativeAt(const std::vector<std::pair<double, double>>& buckets,
                    double le) {
  double cum = 0.0;
  for (const auto& [bound, count] : buckets) {
    if (bound > le) break;
    cum = count;
  }
  return cum;
}

}  // namespace

// ---------------------------------------------------------------------------
// RawConn

StatusOr<std::unique_ptr<RawConn>> RawConn::Connect(uint16_t port) {
  StatusOr<int> fd = Dial(port);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<RawConn>(new RawConn(*fd));
}

RawConn::~RawConn() { ::close(fd_); }

Status RawConn::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("send: " + ErrnoString(errno));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

StatusOr<WireResponse> RawConn::Receive() {
  for (;;) {
    std::string_view body;
    size_t frame_size = 0;
    StatusOr<bool> complete =
        ExtractFrame(inbuf_, kDefaultMaxFrameBytes, &body, &frame_size);
    if (!complete.ok()) return complete.status();
    if (*complete) {
      StatusOr<WireResponse> response = DecodeResponse(body);
      inbuf_.erase(0, frame_size);
      return response;
    }
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::IOError("connection closed by daemon");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("recv: " + ErrnoString(errno));
    }
    inbuf_.append(chunk, static_cast<size_t>(n));
  }
}

StatusOr<WireResponse> RawConn::RoundTrip(const WireRequest& request) {
  outbuf_.clear();
  AppendRequest(request, &outbuf_);
  const Status sent = Send(outbuf_);
  if (!sent.ok()) return sent;
  return Receive();
}

// ---------------------------------------------------------------------------
// LoopbackProbe

namespace {

constexpr size_t kProbeBytes = 64;

/// Sends or receives exactly kProbeBytes; false on EOF or error.
bool SendAll(int fd, const char* data) {
  for (size_t done = 0; done < kProbeBytes;) {
    const ssize_t n = ::send(fd, data + done, kProbeBytes - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}
bool ReceiveAll(int fd, char* data) {
  for (size_t done = 0; done < kProbeBytes;) {
    const ssize_t n = ::recv(fd, data + done, kProbeBytes - done, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<LoopbackProbe>> LoopbackProbe::Start() {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0) return Status::IOError("socket: " + ErrnoString(errno));
  sockaddr_in addr = Loopback(0);
  socklen_t len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status error = Status::IOError("listen: " + ErrnoString(errno));
    ::close(listener);
    return error;
  }
  StatusOr<int> client = Dial(ntohs(addr.sin_port));
  if (!client.ok()) {
    ::close(listener);
    return client.status();
  }
  const int echo = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
  const int accept_errno = errno;
  ::close(listener);
  if (echo < 0) {
    ::close(*client);
    return Status::IOError("probe accept: " + ErrnoString(accept_errno));
  }
  const int one = 1;
  ::setsockopt(echo, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<LoopbackProbe>(new LoopbackProbe(*client, echo));
}

LoopbackProbe::LoopbackProbe(int client_fd, int echo_fd)
    : client_fd_(client_fd), echo_fd_(echo_fd), echo_([this] {
        char message[kProbeBytes];
        while (ReceiveAll(echo_fd_, message) && SendAll(echo_fd_, message)) {
        }
      }) {}

LoopbackProbe::~LoopbackProbe() {
  ::shutdown(client_fd_, SHUT_RDWR);
  ::shutdown(echo_fd_, SHUT_RDWR);
  echo_.join();
  ::close(client_fd_);
  ::close(echo_fd_);
}

double LoopbackProbe::MedianRttUs(int trips) {
  char message[kProbeBytes] = {};
  std::vector<double> rtt_us;
  for (int i = 0; i < trips; ++i) {
    const int64_t start = NowNs();
    if (!SendAll(client_fd_, message) || !ReceiveAll(client_fd_, message)) {
      return 0.0;
    }
    rtt_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return Median(std::move(rtt_us));
}

// ---------------------------------------------------------------------------
// Scrape

Scrape Scrape::Parse(std::string_view text) {
  Scrape out;
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (line.empty() || line[0] == '#') continue;
    const size_t value_at = line.rfind(' ');
    if (value_at == std::string_view::npos) continue;
    Sample sample;
    const size_t brace = line.find('{');
    if (brace != std::string_view::npos && brace < value_at) {
      sample.name = std::string(line.substr(0, brace));
      const size_t close = line.rfind('}', value_at);
      sample.labels = std::string(line.substr(brace + 1, close - brace - 1));
    } else {
      sample.name = std::string(line.substr(0, value_at));
    }
    sample.value = std::strtod(std::string(line.substr(value_at + 1)).c_str(),
                               nullptr);
    out.samples_.push_back(std::move(sample));
  }
  return out;
}

double Scrape::Sum(std::string_view name, std::string_view label_filter) const {
  double sum = 0.0;
  for (const Sample& s : samples_) {
    if (s.name == name && s.labels.find(label_filter) != std::string::npos) {
      sum += s.value;
    }
  }
  return sum;
}

std::vector<std::pair<double, double>> Scrape::Buckets(
    std::string_view family, std::string_view label_filter) const {
  const std::string name = std::string(family) + "_bucket";
  std::vector<std::pair<double, double>> out;
  for (const Sample& s : samples_) {
    if (s.name == name && s.labels.find(label_filter) != std::string::npos) {
      out.emplace_back(ParseLe(s.labels), s.value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double DeltaQuantile(const Scrape& before, const Scrape& after,
                     std::string_view family, std::string_view label_filter,
                     double q) {
  const auto b = before.Buckets(family, label_filter);
  const auto a = after.Buckets(family, label_filter);
  std::vector<double> edges;
  for (const auto& [le, count] : a) edges.push_back(le);
  for (const auto& [le, count] : b) edges.push_back(le);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<double> delta;
  for (double le : edges) {
    delta.push_back(CumulativeAt(a, le) - CumulativeAt(b, le));
  }
  if (delta.empty() || delta.back() <= 0.0) return 0.0;
  const double target = q * delta.back();
  double prev_le = 0.0;
  double prev_count = 0.0;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (delta[i] >= target && delta[i] > prev_count) {
      if (std::isinf(edges[i])) return prev_le;
      // Only non-empty buckets are exposed; a log bucket is at most
      // 12.5% of its upper edge wide.
      const double lower = std::max(prev_le, edges[i] * 0.875);
      return lower + (edges[i] - lower) * (target - prev_count) /
                         (delta[i] - prev_count);
    }
    prev_le = edges[i];
    prev_count = delta[i];
  }
  return prev_le;
}

// ---------------------------------------------------------------------------
// Daemon

StatusOr<std::unique_ptr<Daemon>> Daemon::Start(const Options& options) {
  Status last = Status::Internal("daemon never started");
  for (int attempt = 0; attempt < 3; ++attempt) {
    StatusOr<uint16_t> port = FreePort();
    StatusOr<uint16_t> admin = FreePort();
    if (!port.ok()) return port.status();
    if (!admin.ok()) return admin.status();
    if (*port == *admin) continue;

    std::vector<std::string> args = {
        options.binary,
        "--port=" + std::to_string(*port),
        "--admin-port=" + std::to_string(*admin),
        "--workers=2",
        "--shards=8",
        "--policy=lnc-ra(k=4)",
        "--capacity=" + std::to_string(options.capacity_bytes)};
    if (!options.backend.empty()) {
      args.push_back("--backend=" + options.backend);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const std::string log = options.workdir + "/watchmand.log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);

    std::unique_ptr<Daemon> daemon(new Daemon());
    daemon->port_ = *port;
    daemon->admin_port_ = *admin;
    const int64_t spawned = NowNs();
    const int rc = posix_spawn(&daemon->pid_, options.binary.c_str(),
                               &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      daemon->pid_ = -1;
      return Status::IOError("spawn " + options.binary + ": " +
                             ErrnoString(rc));
    }

    // Ready = the first PING answered; a daemon that exits (its port
    // was taken meanwhile) is retried on fresh ports.
    WireRequest ping;
    ping.op = OpCode::kPing;
    while (SecondsSince(spawned) < 10.0) {
      int status = 0;
      if (::waitpid(daemon->pid_, &status, WNOHANG) == daemon->pid_) {
        daemon->pid_ = -1;
        last = Status::IOError("watchmand exited during startup; see " + log);
        break;
      }
      StatusOr<std::unique_ptr<RawConn>> conn = RawConn::Connect(*port);
      if (conn.ok() && (*conn)->RoundTrip(ping).ok()) {
        daemon->startup_seconds_ = SecondsSince(spawned);
        return daemon;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    if (daemon->pid_ > 0) return Status::IOError("watchmand not ready in 10 s");
  }
  return last;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

Status Daemon::Pause() {
  if (pid_ <= 0 || ::kill(pid_, SIGSTOP) != 0) {
    return Status::IOError("cannot stop watchmand");
  }
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(pid_, &status, WUNTRACED);
    if (got < 0 && errno == EINTR) continue;
    if (got == pid_ && WIFSTOPPED(status)) return Status::OK();
    if (got == pid_) pid_ = -1;  // it exited meanwhile
    return Status::IOError("watchmand exited");
  }
}

void Daemon::Resume() {
  if (pid_ > 0) ::kill(pid_, SIGCONT);
}

StatusOr<Scrape> Daemon::ScrapeMetrics() const {
  StatusOr<int> fd = Dial(admin_port_);
  if (!fd.ok()) return fd.status();
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  std::string response;
  Status status = Status::OK();
  if (::send(*fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    status = Status::IOError("admin send: " + ErrnoString(errno));
  }
  char chunk[64 * 1024];
  while (status.ok()) {
    const ssize_t n = ::recv(*fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0 && errno != EINTR) {
      status = Status::IOError("admin recv: " + ErrnoString(errno));
    }
    if (n > 0) response.append(chunk, static_cast<size_t>(n));
  }
  ::close(*fd);
  if (!status.ok()) return status;
  const size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    return Status::IOError("unexpected /metrics answer");
  }
  return Scrape::Parse(std::string_view(response).substr(body + 4));
}

std::string Daemon::EffectiveBackend() const {
  StatusOr<std::unique_ptr<RawConn>> conn = RawConn::Connect(port_);
  if (!conn.ok()) return "unknown";
  WireRequest stats;
  stats.op = OpCode::kStats;
  StatusOr<WireResponse> response = (*conn)->RoundTrip(stats);
  return response.ok() ? response->stats.backend : "unknown";
}

}  // namespace watchman::e2e
