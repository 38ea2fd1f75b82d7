// Remote quickstart: the quickstart scenario, but served by a watchmand
// daemon over TCP instead of an in-process cache.
//
// The daemon owns no warehouse -- it is a shared retrieved-set cache.
// Each front-end keeps its own executor; RemoteWatchman probes the
// daemon first (GET) and on a miss runs the executor and offers the
// result back (EXECUTE + miss-fill), so swapping `Watchman` for
// `RemoteWatchman` changes nothing else in application code.
//
// By default this example starts a daemon in-process on an ephemeral
// loopback port so it runs standalone (ctest runs it that way); pass a
// port number to attach to an already-running `watchmand` instead:
//
//   ./build/watchmand --port=9736 &
//   ./build/example_remote_quickstart 9736
//
// It checks its answers and exits 1 unless the daemon behaved as a
// fresh one must: the five queries ran the executor once, invalidating
// `lineitem` dropped that one set and the next query ran it again, and
// the pipelined probes read hit, miss, hit.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "server/client.h"
#include "server/server.h"
#include "util/string_util.h"
#include "watchman/watchman.h"

using watchman::MultiplexedClient;
using watchman::RemoteWatchman;
using watchman::Status;
using watchman::StatusOr;
using watchman::Watchman;
using watchman::WatchmanServer;
using watchman::WireStats;

namespace {

/// One blocking HTTP GET against the daemon's admin endpoint. The
/// listener half-closes after its response, so reading to EOF is the
/// whole protocol -- no HTTP library needed.
std::string AdminHttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[8192];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body_at = response.find("\r\n\r\n");
  return body_at == std::string::npos ? "" : response.substr(body_at + 4);
}

/// Pulls one sample value out of a Prometheus exposition body: the sum
/// of every series whose line starts with `name` followed by a label
/// set or a space.
double SumMetric(const std::string& body, const std::string& name) {
  double total = 0.0;
  size_t pos = 0;
  while ((pos = body.find(name, pos)) != std::string::npos) {
    const size_t after = pos + name.size();
    pos = after;
    if (after >= body.size() ||
        (body[after] != '{' && body[after] != ' ')) {
      continue;  // prefix of a longer metric name
    }
    const size_t space = body.find(' ', after);
    const size_t eol = body.find('\n', after);
    if (space == std::string::npos || (eol != std::string::npos && space > eol))
      continue;
    total += std::atof(body.c_str() + space + 1);
  }
  return total;
}

/// Reports a failed check on stderr; returns `ok`.
bool Check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "check failed: %s\n", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // An in-process daemon, unless the caller pointed us at a real one.
  std::unique_ptr<Watchman> daemon_cache;
  std::unique_ptr<WatchmanServer> daemon;
  uint16_t port = 0;
  if (argc > 1) {
    uint64_t value = 0;
    if (!watchman::ParseUint(argv[1], 65535, &value) || value == 0) {
      std::fprintf(stderr, "usage: %s [port]\n", argv[0]);
      return 2;
    }
    port = static_cast<uint16_t>(value);
  } else {
    Watchman::Options options;
    options.capacity_bytes = 4 << 20;
    options.num_shards = 4;
    daemon_cache = std::make_unique<Watchman>(
        std::move(options), WatchmanServer::MissFillExecutor());
    WatchmanServer::Options server_options;
    server_options.admin_port = 0;  // ephemeral /metrics endpoint
    daemon = std::make_unique<WatchmanServer>(daemon_cache.get(),
                                              server_options);
    if (!daemon->Start().ok()) {
      std::fprintf(stderr, "cannot start in-process daemon\n");
      return 1;
    }
    port = daemon->port();
    std::printf("started in-process watchmand on 127.0.0.1:%u "
                "(admin http on :%u)\n\n",
                static_cast<unsigned>(port),
                static_cast<unsigned>(daemon->admin_port()));
  }

  // This front-end's warehouse executor (a mock, as in the quickstart).
  int executions = 0;
  auto executor = [&executions](const std::string& query)
      -> StatusOr<Watchman::ExecutionResult> {
    ++executions;
    Watchman::ExecutionResult result;
    result.payload =
        "region=EU revenue=1,240,551 orders=8,412 [" + query + "]";
    result.cost = 12000;
    result.relations = {"orders", "lineitem"};
    return result;
  };

  MultiplexedClient::Options client_options;
  client_options.port = port;
  auto remote = RemoteWatchman::Connect(client_options, executor);
  if (!remote.ok()) {
    std::fprintf(stderr, "cannot connect: %s\n",
                 remote.status().ToString().c_str());
    return 1;
  }

  const std::string query =
      "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem "
      "WHERE o_orderdate >= DATE '1995-04-01' GROUP BY o_orderpriority";

  for (int i = 0; i < 5; ++i) {
    StatusOr<std::string> result = (*remote)->Query(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("run %d: %s (local executions so far: %d)\n", i + 1,
                result->c_str(), executions);
  }
  if (!Check(executions == 1, "five queries made one local execution")) {
    return 1;
  }

  // The warehouse loaded new lineitem rows: every cached set that read
  // the relation is dropped daemon-side, so the next query re-executes.
  StatusOr<uint64_t> dropped = (*remote)->InvalidateRelation("lineitem");
  if (!dropped.ok()) return 1;
  std::printf("\nwarehouse update: invalidated %llu dependent set(s)\n",
              static_cast<unsigned long long>(*dropped));
  StatusOr<std::string> refreshed = (*remote)->Query(query);
  if (!refreshed.ok()) return 1;
  std::printf("after update: re-executed (local executions: %d)\n",
              executions);
  if (!Check(*dropped == 1 && executions == 2,
             "the update dropped one set and the next query re-executed")) {
    return 1;
  }

  StatusOr<WireStats> stats = (*remote)->Stats();
  if (!stats.ok()) return 1;
  std::printf("\ndaemon stats: %llu lookups, %llu hits (HR %.2f), "
              "CSR %.2f, %llu cached set(s), policy %s\n",
              static_cast<unsigned long long>(stats->lookups),
              static_cast<unsigned long long>(stats->hits),
              stats->hit_ratio(), stats->cost_savings_ratio(),
              static_cast<unsigned long long>(stats->entry_count),
              stats->policy_name.c_str());

  // One connection, many requests in flight: the client pipelines a
  // burst of GET probes (StartGet buffers, the first Await flushes the
  // batch in one write) and the daemon's responses are routed back to
  // each ticket by request id -- the pattern that lets many application
  // threads share a single daemon connection.
  MultiplexedClient& client = (*remote)->client();
  std::printf("\npipelined probes on the same connection:\n");
  MultiplexedClient::Ticket tickets[3];
  const std::string probes[3] = {query, "select 1", query};
  const bool expected_hits[3] = {true, false, true};
  for (int i = 0; i < 3; ++i) {
    auto ticket = client.StartGet(probes[i]);
    if (!ticket.ok()) return 1;
    tickets[i] = *ticket;
  }
  for (int i = 0; i < 3; ++i) {
    auto response = client.Await(tickets[i]);
    if (!response.ok()) return 1;
    const bool hit = response->code == watchman::StatusCode::kOk;
    std::printf("  probe %d (%.25s...): %s\n", i + 1, probes[i].c_str(),
                hit ? "hit" : "miss");
    if (!Check(hit == expected_hits[i], "probes read hit, miss, hit")) {
      return 1;
    }
  }
  // The same numbers a Prometheus scraper would see: poll the admin
  // endpoint and derive the hit ratio from the exposition text.
  if (daemon != nullptr && daemon->admin_port() != 0) {
    const std::string body = AdminHttpGet(daemon->admin_port(), "/metrics");
    if (!body.empty()) {
      const double lookups = SumMetric(body, "watchman_cache_lookups_total");
      const double hits = SumMetric(body, "watchman_cache_hits_total");
      const double used = SumMetric(body, "watchman_cache_used_bytes");
      std::printf("\nscraped /metrics: hit ratio %.2f (%.0f/%.0f), "
                  "%.0f bytes cached, %.0f requests served\n",
                  lookups > 0 ? hits / lookups : 0.0, hits, lookups, used,
                  SumMetric(body, "watchman_server_requests_served_total"));
    }
  }

  if (daemon != nullptr) daemon->Stop();
  return 0;
}
