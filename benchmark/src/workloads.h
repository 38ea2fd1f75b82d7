// The three benchmark workloads. Each drives a freshly spawned watchmand
// over loopback with MultiplexedClient, fills the end-to-end metrics
// into Results and, for the per-layer table, leaves what it observed of
// the daemon and of its own call sites in an Observation.

#ifndef WATCHMAN_BENCHMARK_WORKLOADS_H_
#define WATCHMAN_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "daemon.h"
#include "spans.h"

namespace watchman::e2e {

struct RunConfig {
  uint64_t seed = 9601;
  /// Length of the measured phase.
  double seconds = 30.0;
  /// Record spans (alternate blocks of queries) and write them out.
  bool traced = false;
  /// Also time spare daemon starts between the measured windows and
  /// report the median set-up time (false: the one start).
  bool repeat_setup = true;
  std::string daemon_binary;
  /// Working directory inside the checkout (daemon logs, traces).
  std::string workdir;
  /// Where a traced run writes its Chrome trace ("" = nowhere).
  std::string chrome_trace;
};

/// What one remote workload saw besides its end-to-end metrics.
struct Observation {
  bool valid = false;
  /// /metrics around the measured phase, and the queries it issued.
  Scrape before;
  Scrape after;
  uint64_t queries = 0;
  SpanSummary spans;
  /// tpcd_refresh only: median InvalidateRelation latency.
  double update_p50_us = 0.0;
  /// Fills computed before an invalidation but admitted after it.
  uint64_t protocol_stale_fills = 0;
  /// Median query time of traced blocks over untraced ones, minus 1, in
  /// percent.
  double trace_overhead_pct = 0.0;
  /// Median bare loopback round trip between the measured windows.
  double loopback_rtt_us = 0.0;
};

void RunTpcdRemote(const RunConfig& config, Results* results,
                   Observation* observed);
void RunSetQueryHot(const RunConfig& config, Results* results,
                    Observation* observed);
void RunTpcdRefresh(const RunConfig& config, Results* results,
                    Observation* observed);

}  // namespace watchman::e2e

#endif  // WATCHMAN_BENCHMARK_WORKLOADS_H_
