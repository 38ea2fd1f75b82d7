// The per-layer ladder: each rung times one layer's public functions in
// isolation on the workloads' own inputs, and the remote workloads'
// daemon counters and client-side spans are turned into per-layer
// ratios and stage latencies.

#ifndef WATCHMAN_BENCHMARK_LADDER_H_
#define WATCHMAN_BENCHMARK_LADDER_H_

#include <string>

#include "common.h"
#include "workloads.h"

namespace watchman::e2e {

/// Appends every per-layer metric to `results`. `workload` is the
/// traced workload and `own` what it observed; every other workload
/// runs as a two-second traced slice so that the daemon-side and span
/// metrics exist on every workload.
void RunLadder(const RunConfig& config, const std::string& workload,
               const Observation& own, Results* results);

}  // namespace watchman::e2e

#endif  // WATCHMAN_BENCHMARK_LADDER_H_
