// watchmand wire protocol: length-prefixed binary framing shared by the
// server, the client library and the CLI.
//
// A frame is a 4-byte little-endian body length followed by the body.
// Every body starts with a version byte, an opcode byte and a u64
// request id (echoed by the server, so responses on one connection may
// complete out of order); the remaining fields are opcode-specific,
// encoded with fixed-width little-endian integers and
// u32-length-prefixed strings. Doubles travel as their IEEE-754 bit
// pattern in a u64.
//
// The protocol is deliberately dumb-pipe: requests carry everything the
// daemon needs (notably EXECUTE's optional miss-fill -- the payload,
// cost and relation list the client materialized when the daemon had a
// miss), responses carry a status code + message mirroring util/status,
// and both sides treat an oversized or short frame as corruption.
// Encoding and decoding are pure functions over byte strings so the
// whole layer is unit-testable without sockets.

#ifndef WATCHMAN_SERVER_PROTOCOL_H_
#define WATCHMAN_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace watchman {

/// Protocol revision; bumped on any incompatible framing change. A
/// decoder rejects bodies whose version byte differs.
/// v2: STATS gained connections_queued / connections_queued_peak
/// (worker-pool saturation visibility).
/// v3: every request and response carries a u64 request_id right after
/// the (version, opcode) prologue. The server echoes the id verbatim,
/// which lets one connection carry many in-flight requests with
/// out-of-order responses (MultiplexedClient) and lets error responses
/// be routed to the request that caused them.
///
/// v4: adds the COMPACT opcode (force metadata compaction) and extends
/// the STATS payload with compaction counters and the serving backend
/// name.
///
/// v5: responses carry a u32 retry_after_ms hint right after the status
/// message, and the status byte may be kShedRetryLater — the server's
/// admission layer refused the request before dispatch (per-peer quota,
/// connection cap, or global budget), so retrying after the hinted
/// backoff is always safe, even for non-replay-safe ops.
inline constexpr uint8_t kWireVersion = 5;

/// Upper bound both sides place on one frame's body (guards the length
/// prefix against garbage and bounds per-connection memory).
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

/// Request operations.
enum class OpCode : uint8_t {
  kPing = 1,                // liveness / framing check
  kExecute = 2,             // full cache lookup, miss filled server- or
                            // client-side (see WireRequest::has_fill)
  kGet = 3,                 // hit-only probe; NotFound on a miss
  kInvalidate = 4,          // drop one query's retrieved set
  kInvalidateRelation = 5,  // drop every set that read a relation
  kStats = 6,               // cache + server counters snapshot
  kCompact = 7,             // force a metadata compaction pass
};

inline constexpr size_t kNumOpCodes = 7;

/// True if `raw` encodes a known OpCode.
bool IsValidOpCode(uint8_t raw);

/// Stable lower-case name ("ping", "execute", ...).
const char* OpCodeName(OpCode op);

/// Index of `op` in dense per-op arrays (kPing -> 0, ...).
inline size_t OpIndex(OpCode op) { return static_cast<size_t>(op) - 1; }

/// A decoded request.
struct WireRequest {
  OpCode op = OpCode::kPing;
  /// Correlates the response with this request on a multiplexed
  /// connection; echoed verbatim by the server. Clients choose ids
  /// (monotonic per connection); the server never interprets them.
  uint64_t request_id = 0;
  /// kExecute / kGet / kInvalidate: the query text (the daemon derives
  /// the query ID exactly like the local facade).
  std::string query_text;
  /// kInvalidateRelation: the updated relation.
  std::string relation;
  /// kExecute: when true, the request carries the result the client
  /// computed for a miss -- a daemon without a warehouse offers it in
  /// place of an execution if (and only if) the lookup actually misses.
  bool has_fill = false;
  std::string fill_payload;
  uint64_t fill_cost = 1;
  std::vector<std::string> fill_relations;
};

/// Latency/throughput counters for one opcode (STATS payload).
struct WireOpMetrics {
  uint8_t op = 0;
  uint64_t requests = 0;
  /// Responses with a status other than OK / NotFound (a miss is not an
  /// error).
  uint64_t errors = 0;
  /// Handler latency in microseconds.
  uint64_t latency_count = 0;
  double latency_mean_us = 0.0;
  double latency_min_us = 0.0;
  double latency_max_us = 0.0;
};

/// The STATS response payload: the facade's cache counters plus the
/// server's transport counters.
struct WireStats {
  // CacheStats, verbatim.
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t admission_rejections = 0;
  uint64_t too_large_rejections = 0;
  uint64_t cost_total = 0;
  uint64_t cost_saved = 0;
  uint64_t bytes_inserted = 0;
  uint64_t bytes_evicted = 0;
  // Facade gauges.
  uint64_t used_bytes = 0;
  uint64_t capacity_bytes = 0;
  uint64_t entry_count = 0;
  uint64_t retained_count = 0;
  uint64_t invalidations = 0;
  uint64_t num_shards = 0;
  std::string policy_name;
  // Server transport counters.
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  /// Connections accepted but not yet claimed by a worker (gauge at
  /// snapshot time) and the high-water mark of that queue: sustained
  /// non-zero values mean the worker pool is saturated.
  uint64_t connections_queued = 0;
  uint64_t connections_queued_peak = 0;
  uint64_t requests_served = 0;
  uint64_t frames_rejected = 0;
  /// Metadata compactions run by the daemon (idle timer or COMPACT op).
  uint64_t compactions = 0;
  /// Milliseconds since the last compaction at snapshot time;
  /// kNeverCompacted when none has run yet.
  uint64_t last_compaction_age_ms = kNeverCompacted;
  /// Event backend actually serving ("epoll" or "io_uring") -- the
  /// requested backend may have fallen back at startup.
  std::string backend;
  std::vector<WireOpMetrics> per_op;

  static constexpr uint64_t kNeverCompacted = ~0ull;

  double hit_ratio() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  double cost_savings_ratio() const {
    return cost_total == 0 ? 0.0
                           : static_cast<double>(cost_saved) /
                                 static_cast<double>(cost_total);
  }
};

/// A decoded response. `op` echoes the request; `code`/`message` mirror
/// the handler's Status; the remaining fields are op-specific.
struct WireResponse {
  OpCode op = OpCode::kPing;
  /// Echo of the request's id (0 when the request's id could not be
  /// decoded, e.g. a framing-level error response).
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
  /// With code == kShedRetryLater: how long the server suggests the
  /// client wait before retrying (0 = "immediately"). Zero on every
  /// other status.
  uint32_t retry_after_ms = 0;
  /// kExecute / kGet: true when the payload came from the cache rather
  /// than a fill/execution.
  bool cache_hit = false;
  std::string payload;
  /// kInvalidate / kInvalidateRelation: retrieved sets dropped.
  uint64_t dropped = 0;
  WireStats stats;

  /// Re-arms a response object for reuse: resets every field while
  /// keeping message/payload capacity (per-connection scratch).
  void Reset(OpCode new_op) {
    op = new_op;
    request_id = 0;
    code = StatusCode::kOk;
    message.clear();
    retry_after_ms = 0;
    cache_hit = false;
    payload.clear();
    dropped = 0;
    if (!stats.per_op.empty() || stats.lookups != 0) stats = WireStats{};
  }
};

/// Encodes a complete frame (length prefix + body).
std::string EncodeRequest(const WireRequest& request);
std::string EncodeResponse(const WireResponse& response);

/// Appends the encoded frame of `request` to *out in place -- the
/// pipelined client batches many requests into one output buffer
/// without a temporary string per frame.
void AppendRequest(const WireRequest& request, std::string* out);

/// Appends the encoded frame of `response` to *out in place -- the
/// server batches many responses into one per-connection output buffer
/// without a temporary string per frame.
void AppendResponse(const WireResponse& response, std::string* out);

/// Decodes a frame body (without the length prefix). Corruption on
/// truncated/overlong bodies, NotSupported on a version mismatch,
/// InvalidArgument on an unknown opcode.
StatusOr<WireRequest> DecodeRequest(std::string_view body);
StatusOr<WireResponse> DecodeResponse(std::string_view body);

/// DecodeRequest into a caller-owned request object, reusing its string
/// capacity -- the server decodes every frame of a connection into one
/// scratch WireRequest, so steady-state framing allocates nothing.
Status DecodeRequestInto(std::string_view body, WireRequest* request);

/// Streaming frame extraction: examines `buffer` (the bytes read so
/// far) and, when a complete frame is present, points *body at its body
/// bytes inside `buffer`, sets *frame_size to the total frame size
/// (prefix + body) and returns true. Returns false when more bytes are
/// needed, Corruption when the length prefix exceeds `max_frame_bytes`.
StatusOr<bool> ExtractFrame(std::string_view buffer, size_t max_frame_bytes,
                            std::string_view* body, size_t* frame_size);

/// Best-effort read of the (op, request_id) prologue of a body that
/// failed to decode, so an error response can echo which request broke
/// instead of defaulting to (ping, 0). Leaves *op / *request_id
/// untouched when the prologue itself is unreadable (wrong version,
/// unknown opcode, body shorter than the prologue).
void PeekPrologue(std::string_view body, OpCode* op, uint64_t* request_id);

/// Rebuilds a Status from a wire (code, message) pair; OK for kOk.
Status StatusFromWire(StatusCode code, const std::string& message);

}  // namespace watchman

#endif  // WATCHMAN_SERVER_PROTOCOL_H_
