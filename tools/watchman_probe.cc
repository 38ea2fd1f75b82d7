// watchman_probe: a minimal wire-protocol load probe for watchmand.
//
// Fires `--count` back-to-back PINGs (shed retries disabled so raw
// kShedRetryLater statuses are visible) and prints how many were
// served, shed, or failed. CI uses it to drive a quota-exceeding
// client before asserting the shed counters on /metrics
// (tools/check_metrics.py --require-shed); operators can use it to
// verify a quota config actually sheds before pointing a fleet at it.
//
// Exit status: 0 when every ping was served or shed (the daemon is up
// and answering), 1 on transport errors, 2 on usage errors.
//
// Usage:
//   watchman_probe --port=9070 [--host=H] [--count=N] [--expect-shed]
//
// --expect-shed additionally exits 1 unless at least one ping was
// shed -- the mode CI uses against a daemon started with a tiny quota.

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "server/client.h"
#include "util/status.h"
#include "util/string_util.h"

namespace watchman {
namespace {

int Run(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint64_t port = 0;
  uint64_t count = 20;
  bool expect_shed = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    // A malformed --port or --count reads as 0, which the check after
    // the loop rejects.
    if (ParseFlag(argv[i], "host", &value)) {
      host = value;
    } else if (ParseFlag(argv[i], "port", &value)) {
      if (!ParseUint(value, 65535, &port)) port = 0;
    } else if (ParseFlag(argv[i], "count", &value)) {
      if (!ParseUint(value, std::numeric_limits<int>::max(), &count)) count = 0;
    } else if (std::strcmp(argv[i], "--expect-shed") == 0) {
      expect_shed = true;
    } else {
      std::fprintf(stderr,
                   "usage: watchman_probe --port=<p> [--host=<h>] "
                   "[--count=<n>] [--expect-shed]\n");
      return 2;
    }
  }
  if (port == 0 || count == 0) {
    std::fprintf(stderr, "watchman_probe: need --port in 1..65535 and a "
                         "positive --count\n");
    return 2;
  }

  MultiplexedClient::Options options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  options.io_timeout_ms = 5000;
  options.shed_retries = 0;  // surface raw kShedRetryLater statuses
  auto client = MultiplexedClient::Connect(options);
  if (!client.ok()) {
    std::fprintf(stderr, "watchman_probe: connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  int served = 0, shed = 0, failed = 0;
  for (int i = 0; i < static_cast<int>(count); ++i) {
    const Status s = (*client)->Ping();
    if (s.ok()) {
      ++served;
    } else if (s.code() == StatusCode::kShedRetryLater) {
      ++shed;
    } else {
      ++failed;
      std::fprintf(stderr, "watchman_probe: ping %d: %s\n", i,
                   s.ToString().c_str());
    }
  }
  std::printf("watchman_probe: served=%d shed=%d failed=%d\n", served, shed,
              failed);
  if (failed > 0) return 1;
  if (expect_shed && shed == 0) {
    std::fprintf(stderr,
                 "watchman_probe: --expect-shed but nothing was shed (is "
                 "the daemon's quota configured?)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace watchman

int main(int argc, char** argv) { return watchman::Run(argc, argv); }
