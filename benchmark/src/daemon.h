// The system under test as a separate process: spawns the commit's own
// watchmand on free loopback ports, waits for its first PING, scrapes
// its /metrics endpoint and reads its CPU time and peak RSS from /proc.
// Also a blocking socket speaking the public wire codec, for the
// transport rungs and for probing the daemon without the client
// library, and the bare loopback probe the remote workloads' times are
// expressed in.

#ifndef WATCHMAN_BENCHMARK_DAEMON_H_
#define WATCHMAN_BENCHMARK_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "server/protocol.h"
#include "util/status.h"

namespace watchman::e2e {

/// One blocking TCP connection to the daemon using the wire codec.
class RawConn {
 public:
  static StatusOr<std::unique_ptr<RawConn>> Connect(uint16_t port);
  ~RawConn();
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  Status Send(std::string_view bytes);
  /// Reads one response frame.
  StatusOr<WireResponse> Receive();
  /// Send + Receive of one request.
  StatusOr<WireResponse> RoundTrip(const WireRequest& request);

 private:
  explicit RawConn(int fd) : fd_(fd) {}
  int fd_;
  std::string inbuf_;
  std::string outbuf_;
};

/// The machine's bare loopback round trip: 64-byte messages over a
/// blocking TCP connection to an echo thread of the benchmark itself,
/// with no watchman code on the path. The remote workloads express their
/// times in these round trips, measured between their windows, because
/// the cost of a loopback round trip on a shared host swings by a fifth
/// over minutes and every query pays it (benchmark/README.md).
class LoopbackProbe {
 public:
  static StatusOr<std::unique_ptr<LoopbackProbe>> Start();
  /// Closes the connection and joins the echo thread.
  ~LoopbackProbe();
  LoopbackProbe(const LoopbackProbe&) = delete;
  LoopbackProbe& operator=(const LoopbackProbe&) = delete;

  /// Median of `trips` round trips, in microseconds; 0 if one failed.
  double MedianRttUs(int trips);

 private:
  LoopbackProbe(int client_fd, int echo_fd);
  int client_fd_;
  int echo_fd_;
  std::thread echo_;
};

/// A parsed Prometheus text scrape.
class Scrape {
 public:
  static Scrape Parse(std::string_view text);

  /// Sum over every series of metric `name` whose label text contains
  /// `label_filter`.
  double Sum(std::string_view name, std::string_view label_filter = "") const;
  /// (le, cumulative count) of histogram `family`, ascending.
  std::vector<std::pair<double, double>> Buckets(
      std::string_view family, std::string_view label_filter) const;

 private:
  struct Sample {
    std::string name;
    std::string labels;
    double value = 0.0;
  };
  std::vector<Sample> samples_;
};

/// Quantile of what histogram `family` recorded between two scrapes, in
/// the family's unit; 0 when nothing was recorded.
double DeltaQuantile(const Scrape& before, const Scrape& after,
                     std::string_view family, std::string_view label_filter,
                     double q);

/// A running watchmand child process. The destructor kills it and
/// waits for it to exit.
class Daemon {
 public:
  struct Options {
    std::string binary;
    /// Directory for the daemon's log file.
    std::string workdir;
    uint64_t capacity_bytes = 0;
    /// "" = the daemon's default (auto).
    std::string backend;
  };

  /// Spawns the daemon and returns once a PING is answered.
  static StatusOr<std::unique_ptr<Daemon>> Start(const Options& options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// SIGSTOP, returning once the daemon has stopped, and SIGCONT: the
  /// loopback probe runs while the daemon cannot take CPU from it.
  Status Pause();
  void Resume();
  /// Seconds from spawn to the first PING answered.
  double startup_seconds() const { return startup_seconds_; }

  StatusOr<Scrape> ScrapeMetrics() const;
  ProcStats Proc() const { return ReadProcStats(pid_); }
  /// The event backend serving traffic (STATS), e.g. "io_uring".
  std::string EffectiveBackend() const;

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
  double startup_seconds_ = 0.0;
};

}  // namespace watchman::e2e

#endif  // WATCHMAN_BENCHMARK_DAEMON_H_
