// CircuitBreaker: stop re-attempting a failing dependency for a
// cooldown instead of paying its failure latency on every call.
//
// Classic three-state breaker, lock-free:
//  - closed: every call allowed; consecutive failures are counted.
//  - open: after `failure_threshold` consecutive failures, every call
//    is rejected until `cooldown_ms` elapses.
//  - half-open: after the cooldown exactly one probe call is admitted;
//    its success closes the breaker, its failure re-opens it for
//    another cooldown.
//
// Callers supply the clock as milliseconds (any monotonic origin), so
// tests drive time explicitly; closed() lets a hot path skip the clock
// read while the breaker is closed. A failure_threshold of 0 disables
// the breaker entirely (Allow always true, failures never trip).

#ifndef WATCHMAN_UTIL_CIRCUIT_BREAKER_H_
#define WATCHMAN_UTIL_CIRCUIT_BREAKER_H_

#include <atomic>
#include <cstdint>

namespace watchman {

class CircuitBreaker {
 public:
  struct Options {
    /// Consecutive failures that trip the breaker; 0 disables it.
    int failure_threshold = 5;
    /// How long the breaker stays open before admitting a probe.
    int64_t cooldown_ms = 2000;
  };

  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  explicit CircuitBreaker(Options options) : options_(options) {}

  bool enabled() const { return options_.failure_threshold > 0; }

  /// True when the breaker is disabled or closed, so Allow() would admit
  /// the call at any time: a caller checks this first and reads its
  /// clock only when it is false.
  bool closed() const {
    return !enabled() || open_until_ms_.load(std::memory_order_acquire) == 0;
  }

  /// True when the protected call may proceed. In the half-open state
  /// only one caller wins the probe slot; the rest are rejected until
  /// the probe reports back.
  bool Allow(int64_t now_ms) {
    if (!enabled()) return true;
    const int64_t until = open_until_ms_.load(std::memory_order_acquire);
    if (until == 0) return true;
    if (now_ms < until) {
      // relaxed: stats counter only; no reader pairs it with other data.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    bool expected = false;
    if (probe_inflight_.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
      return true;
    }
    // relaxed: stats counter only.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  void RecordSuccess() {
    // relaxed: the probe flag gates concurrency but publishes no data;
    // a racer that sees the release late merely stays rejected for one
    // more Allow(), which the half-open design already tolerates.
    probe_inflight_.store(false, std::memory_order_relaxed);
    // relaxed: heuristic tally; the open/closed decision other threads
    // act on is published solely through open_until_ms_ below.
    consecutive_failures_.store(0, std::memory_order_relaxed);
    open_until_ms_.store(0, std::memory_order_release);
  }

  void RecordFailure(int64_t now_ms) {
    // relaxed: same probe-flag rationale as RecordSuccess.
    probe_inflight_.store(false, std::memory_order_relaxed);
    // relaxed: consecutive-failure counting is a heuristic; interleaved
    // counts can only trip the breaker a call early or late.
    const int failures =
        consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!enabled() || failures < options_.failure_threshold) return;
    const int64_t until = now_ms + options_.cooldown_ms;
    const int64_t prev =
        open_until_ms_.exchange(until, std::memory_order_acq_rel);
    // Count a trip only on the closed/half-open -> open transition, not
    // when concurrent failures extend an already-open window.
    if (prev == 0 || prev <= now_ms) {
      // relaxed: stats counter only.
      trips_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  State state(int64_t now_ms) const {
    const int64_t until = open_until_ms_.load(std::memory_order_acquire);
    if (until == 0) return State::kClosed;
    return now_ms < until ? State::kOpen : State::kHalfOpen;
  }

  /// Times the breaker transitioned into the open state.
  /// (relaxed loads here and below: scrape-time stats reads.)
  uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }
  /// Calls rejected while open (or while a half-open probe was out).
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  Options options_;
  std::atomic<int> consecutive_failures_{0};
  /// 0 = closed; otherwise the end of the current open window.
  std::atomic<int64_t> open_until_ms_{0};
  std::atomic<bool> probe_inflight_{false};
  std::atomic<uint64_t> trips_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace watchman

#endif  // WATCHMAN_UTIL_CIRCUIT_BREAKER_H_
