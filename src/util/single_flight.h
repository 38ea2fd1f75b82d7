// Single-flight execution: concurrent callers that ask for the same key
// share one execution of the underlying work (golang's
// singleflight.Group). Watchman uses it to ensure a burst of identical
// missed queries executes against the warehouse once, with every caller
// receiving the retrieved set.

#ifndef WATCHMAN_UTIL_SINGLE_FLIGHT_H_
#define WATCHMAN_UTIL_SINGLE_FLIGHT_H_

#include <memory>
#include <unordered_map>

#include "util/mutex.h"

namespace watchman {

/// Deduplicates concurrent calls by key. `Value` must be copyable (use a
/// shared_ptr for heavy results); `fn` must not throw.
template <typename Key, typename Value>
class SingleFlight {
 public:
  /// Runs `fn` (or joins an in-flight call with the same key) and
  /// returns its result. `*leader` (optional) is set to true for the
  /// caller whose `fn` actually ran. `fn` executes outside all internal
  /// locks, so callers on distinct keys never serialize each other. It
  /// is any callable returning a Value, taken by reference and never
  /// copied, so a large closure costs no allocation.
  template <typename Fn>
  Value Do(const Key& key, Fn&& fn, bool* leader = nullptr) {
    std::shared_ptr<Call> call;
    bool is_leader = false;
    {
      MutexLock lock(mu_);
      auto it = calls_.find(key);
      if (it == calls_.end()) {
        call = std::make_shared<Call>();
        calls_.emplace(key, call);
        is_leader = true;
      } else {
        call = it->second;
      }
    }
    if (leader != nullptr) *leader = is_leader;
    if (is_leader) {
      Value value{};
      try {
        value = fn();
      } catch (...) {
        // Release the waiters with a default-constructed Value and
        // retire the flight, then let the exception reach the leader's
        // caller; otherwise every present and future caller for this
        // key would block forever.
        Finish(key, call, value);
        throw;
      }
      Finish(key, call, value);
      return value;
    }
    MutexLock lock(call->mu);
    while (!call->done) call->cv.Wait(call->mu);
    return call->value;
  }

  /// In-flight calls right now (for tests).
  size_t pending() const {
    MutexLock lock(mu_);
    return calls_.size();
  }

 private:
  struct Call {
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    Value value GUARDED_BY(mu) = Value{};
  };

  void Finish(const Key& key, const std::shared_ptr<Call>& call,
              const Value& value) {
    // Retire the flight before releasing its waiters: a waiter that
    // calls Do() again for this key must start a new flight, never
    // rejoin this finished one (and return its value again at once).
    {
      MutexLock lock(mu_);
      calls_.erase(key);
    }
    {
      MutexLock lock(call->mu);
      call->value = value;
      call->done = true;
    }
    call->cv.NotifyAll();
  }

  mutable Mutex mu_;
  std::unordered_map<Key, std::shared_ptr<Call>> calls_ GUARDED_BY(mu_);
};

}  // namespace watchman

#endif  // WATCHMAN_UTIL_SINGLE_FLIGHT_H_
