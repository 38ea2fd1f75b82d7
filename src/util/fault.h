// Deterministic fault injection for robustness tests.
//
// A process-wide FaultInjector holds a per-fault-site probability table
// and a seed. Each call site asks Trip(fault); the decision is a pure
// function of (seed, fault, per-fault call ordinal), so a given seed
// replays the same schedule per site regardless of thread interleaving.
// The layer is compiled in unconditionally but costs one relaxed atomic
// load when disabled (the common case), so production binaries carry it
// at no measurable cost.
//
// Sites:
//  - socket syscalls (FaultSend/FaultRecv/FaultAccept4 shims used by the
//    server IO loop and the client): short writes/reads, EAGAIN
//    storms, ECONNRESET, slow-peer stalls. The epoll loops are
//    level-triggered and the client waits via poll, so an injected
//    EAGAIN is always followed by a real readiness notification.
//  - payload store Put/Get (FaultPoint in the facade's payload path,
//    in front of the store and the circuit breaker's failure
//    accounting): typed Status failures.
//  - warehouse executor (watchman.cc): Status failure or a thrown
//    exception, exercising the degrade-to-pass-through path.
//  - cache-entry allocation (OfferToCache): simulated allocation
//    failure, exercising serve-fresh-without-caching.
//
// Configuration comes from a spec string ("seed=42,recv_short=0.1,
// store_put_fail=0.5,stall_ms=5"), exposed by watchmand as --faults and
// the WATCHMAN_FAULTS environment variable.

#ifndef WATCHMAN_UTIL_FAULT_H_
#define WATCHMAN_UTIL_FAULT_H_

#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace watchman {

/// Every injectable fault. One probability knob per enumerator.
enum class Fault : uint8_t {
  kSendShort = 0,  // truncate a send to 1 byte
  kSendEagain,     // fake EAGAIN on send without touching the socket
  kSendReset,      // fake ECONNRESET on send
  kSendStall,      // sleep stall_ms before the send proceeds
  kRecvShort,      // truncate a recv to 1 byte
  kRecvEagain,     // fake EAGAIN on recv
  kRecvReset,      // fake ECONNRESET on recv
  kRecvStall,      // sleep stall_ms before the recv proceeds
  kAcceptFail,     // fake ECONNABORTED on accept
  kStorePutFail,   // payload store Put returns IOError
  kStoreGetFail,   // payload store Get returns IOError
  kExecFail,       // warehouse executor returns Internal
  kExecThrow,      // warehouse executor throws
  kAllocFail,      // cache-entry allocation fails (miss served uncached)
  kNumFaults,
};

inline constexpr size_t kNumFaults = static_cast<size_t>(Fault::kNumFaults);

/// Stable spec-token name ("send_short", "store_put_fail", ...).
const char* FaultName(Fault f);

/// A parsed fault spec: seed, stall duration and per-fault probability.
struct FaultConfig {
  uint64_t seed = 1;
  int stall_ms = 1;
  std::array<double, kNumFaults> probability{};  // all zero

  bool any_enabled() const {
    for (double p : probability) {
      if (p > 0) return true;
    }
    return false;
  }
};

/// Parses "key=value,key=value" where key is `seed`, `stall_ms` or a
/// FaultName and value is an integer (seed/stall_ms) or a probability
/// in [0,1]. Pure function; InvalidArgument on unknown keys or
/// malformed/out-of-range values. An empty spec is a valid all-off
/// config.
Status ParseFaultSpec(std::string_view spec, FaultConfig* out);

/// The process-wide injector. Thread-safe; every mutation fully
/// re-seeds the schedule (call ordinals restart at zero).
class FaultInjector {
 public:
  /// The injector consulted by all shims and fault points.
  static FaultInjector& Global();

  /// Parses `spec` and installs it atomically-ish (tests configure
  /// before traffic; concurrent Trip calls see either schedule).
  Status Configure(std::string_view spec);

  /// Installs an already-parsed config.
  void Install(const FaultConfig& config);

  /// Disables every fault and zeroes counters and ordinals.
  void Reset();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// True when `f` fires at this call. Advances f's call ordinal.
  bool Trip(Fault f);

  /// Decisions taken / faults actually injected for `f` since the last
  /// Install/Reset.
  uint64_t decisions(Fault f) const {
    return calls_[static_cast<size_t>(f)].load(std::memory_order_relaxed);
  }
  uint64_t injected(Fault f) const {
    return injected_[static_cast<size_t>(f)].load(std::memory_order_relaxed);
  }
  /// Total faults injected across all sites.
  uint64_t injected_total() const;

  int stall_ms() const { return stall_ms_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> seed_{1};
  std::atomic<int> stall_ms_{1};
  // Probability as a threshold in [0, 2^32]: fire when the decision
  // hash's top 32 bits fall below it (2^32 = always).
  std::array<std::atomic<uint64_t>, kNumFaults> threshold_{};
  std::array<std::atomic<uint64_t>, kNumFaults> calls_{};
  std::array<std::atomic<uint64_t>, kNumFaults> injected_{};
};

/// Socket shims: behave exactly like the syscall unless the injector is
/// enabled and a matching fault fires. Fake errors never touch the
/// socket, so no bytes are lost — the peer simply observes a slow or
/// flaky transport.
ssize_t FaultSend(int fd, const void* buf, size_t len, int flags);
ssize_t FaultRecv(int fd, void* buf, size_t len, int flags);
int FaultAccept4(int fd, int flags);

/// Status-typed fault point for non-socket sites: OK unless `f` fires,
/// in which case an IOError/Internal naming `what` is returned.
Status FaultPoint(Fault f, const char* what);

}  // namespace watchman

#endif  // WATCHMAN_UTIL_FAULT_H_
