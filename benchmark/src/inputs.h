// Workload inputs: seeded TPC-D and Set Query traces turned into the
// requests a warehouse front-end would send, plus the payload stamp the
// answer oracle reads back.

#ifndef WATCHMAN_BENCHMARK_INPUTS_H_
#define WATCHMAN_BENCHMARK_INPUTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"
#include "watchman/watchman.h"

namespace watchman::e2e {

/// The relations the refresh stream updates (TPC-D UF1 / UF2), as bits.
inline constexpr uint32_t kOrdersBit = 1;
inline constexpr uint32_t kLineitemBit = 2;
const char* RefreshRelationName(uint32_t bit);

/// One distinct query of a trace.
struct QueryInfo {
  /// Template, instance, result size and cost: what the simulated
  /// warehouse executes.
  QueryEvent event;
  /// FindTemplate(template_id)->QueryText(instance): what is sent.
  std::string text;
  /// The FROM clause: the relations a fill reports reading.
  std::vector<std::string> relations;
  /// kOrdersBit / kLineitemBit of the refreshed relations it reads.
  uint32_t refresh_mask = 0;
};

/// A trace as request indices over its distinct queries.
struct Input {
  uint64_t db_bytes = 0;
  std::vector<QueryInfo> queries;
  std::vector<uint32_t> events;
};

enum class Benchmark { kTpcd, kSetQuery };

/// Generates `num_events` queries of `benchmark` from `seed` (the same
/// generator the figure benches use) and indexes the distinct ones.
Input MakeInput(Benchmark benchmark, uint64_t seed, size_t num_events);

/// The generator's raw trace (the simulator rungs).
Trace MakeTrace(Benchmark benchmark, uint64_t seed, size_t num_events);
uint64_t DatabaseBytes(Benchmark benchmark);

/// Every fill overwrites its first kStampBytes bytes with the fill id
/// and the query index, so a served payload names the execution that
/// produced it.
inline constexpr size_t kStampBytes = 16;

/// The warehouse result of `query`, stamped with `fill_id`.
Watchman::ExecutionResult MakeFill(const QueryInfo& query, uint32_t index,
                                   uint64_t fill_id);

struct Stamp {
  uint64_t fill_id = 0;
  uint32_t query = 0;
  bool valid = false;
};
Stamp ReadStamp(std::string_view payload);

/// True when `served` equals the synthesized answer of `query` outside
/// the stamp. `expected` is a buffer reused between calls.
bool BodyMatches(const QueryInfo& query, std::string_view served,
                 std::string* expected);

}  // namespace watchman::e2e

#endif  // WATCHMAN_BENCHMARK_INPUTS_H_
