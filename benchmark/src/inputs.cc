#include "inputs.h"

#include <cstring>
#include <sstream>
#include <unordered_map>

#include "storage/schemas.h"
#include "watchman/warehouse.h"
#include "workload/setquery_workload.h"
#include "workload/tpcd_workload.h"

namespace watchman::e2e {
namespace {

constexpr uint32_t kStampMagic = 0x57415443;  // "WATC"

WorkloadMix MakeMix(Benchmark benchmark, const Database& db) {
  return benchmark == Benchmark::kTpcd ? MakeTpcdWorkload(db)
                                       : MakeSetQueryWorkload(db);
}

Database MakeDatabase(Benchmark benchmark) {
  return benchmark == Benchmark::kTpcd ? MakeTpcdDatabase()
                                       : MakeSetQueryDatabase();
}

Trace Generate(const WorkloadMix& mix, uint64_t seed, size_t num_events) {
  TraceGenOptions options;
  options.num_queries = num_events;
  options.seed = seed;
  return mix.GenerateTrace(options);
}

/// Relations named between FROM and the next clause keyword.
std::vector<std::string> FromClause(const std::string& text) {
  std::istringstream words(text);
  std::vector<std::string> out;
  std::string word;
  bool in_from = false;
  while (words >> word) {
    if (word == "from") {
      in_from = true;
    } else if (word == "where" || word == "group" || word == "order") {
      if (in_from) break;
    } else if (in_from) {
      out.push_back(word);
    }
  }
  return out;
}

}  // namespace

const char* RefreshRelationName(uint32_t bit) {
  return bit == kOrdersBit ? "orders" : "lineitem";
}

uint64_t DatabaseBytes(Benchmark benchmark) {
  return MakeDatabase(benchmark).total_bytes();
}

Trace MakeTrace(Benchmark benchmark, uint64_t seed, size_t num_events) {
  const Database db = MakeDatabase(benchmark);
  return Generate(MakeMix(benchmark, db), seed, num_events);
}

Input MakeInput(Benchmark benchmark, uint64_t seed, size_t num_events) {
  const Database db = MakeDatabase(benchmark);
  const WorkloadMix mix = MakeMix(benchmark, db);
  const Trace trace = Generate(mix, seed, num_events);

  Input input;
  input.db_bytes = db.total_bytes();
  input.events.reserve(trace.size());
  std::unordered_map<std::string, uint32_t> index;
  for (const QueryEvent& event : trace) {
    auto [it, inserted] = index.try_emplace(
        event.query_id, static_cast<uint32_t>(input.queries.size()));
    if (inserted) {
      QueryInfo q;
      q.event = event;
      q.text = mix.FindTemplate(event.template_id)->QueryText(event.instance);
      q.relations = FromClause(q.text);
      for (const std::string& rel : q.relations) {
        if (rel == "orders") q.refresh_mask |= kOrdersBit;
        if (rel == "lineitem") q.refresh_mask |= kLineitemBit;
      }
      input.queries.push_back(std::move(q));
    }
    input.events.push_back(it->second);
  }
  return input;
}

Watchman::ExecutionResult MakeFill(const QueryInfo& query, uint32_t index,
                                   uint64_t fill_id) {
  SimulatedWarehouse warehouse;
  Watchman::ExecutionResult result = warehouse.Execute(query.event);
  result.relations = query.relations;
  // Result sizes are at least 64 bytes; a shorter one stays unstamped
  // and the oracle reports it as a wrong answer.
  if (result.payload.size() < kStampBytes) return result;
  char* p = result.payload.data();
  std::memcpy(p, &fill_id, 8);
  std::memcpy(p + 8, &index, 4);
  std::memcpy(p + 12, &kStampMagic, 4);
  return result;
}

Stamp ReadStamp(std::string_view payload) {
  Stamp stamp;
  if (payload.size() < kStampBytes) return stamp;
  uint32_t magic = 0;
  std::memcpy(&stamp.fill_id, payload.data(), 8);
  std::memcpy(&stamp.query, payload.data() + 8, 4);
  std::memcpy(&magic, payload.data() + 12, 4);
  stamp.valid = magic == kStampMagic;
  return stamp;
}

bool BodyMatches(const QueryInfo& query, std::string_view served,
                 std::string* expected) {
  if (served.size() != query.event.result_bytes ||
      served.size() < kStampBytes) {
    return false;
  }
  SimulatedWarehouse warehouse;
  *expected = warehouse.Execute(query.event).payload;
  return std::memcmp(served.data() + kStampBytes,
                     expected->data() + kStampBytes,
                     served.size() - kStampBytes) == 0;
}

}  // namespace watchman::e2e
