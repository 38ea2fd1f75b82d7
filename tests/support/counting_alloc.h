// A counting global allocator shared by the zero-allocation tests
// (cache hit path in tests/cache/allocation_test.cc, server request
// path in tests/server/server_alloc_test.cc).
//
// The operator new/delete overrides live in counting_alloc.cc -- once
// per test binary, so multiple suites can arm the counter without each
// redefining the global allocator (an ODR trap).
//
// Two arming modes:
//  * CountingScope -- counts allocations made by the constructing
//    thread only (the classic cache-test mode: the measured section
//    runs on the test thread).
//  * GlobalCountingScope -- counts allocations made by EVERY thread
//    except those excluded; the constructing thread excludes itself,
//    because it drives the workload (client encode/decode) while the
//    threads under test are the server's IO thread and workers.

#ifndef WATCHMAN_TESTS_SUPPORT_COUNTING_ALLOC_H_
#define WATCHMAN_TESTS_SUPPORT_COUNTING_ALLOC_H_

#include <cstdint>

namespace watchman {
namespace testsupport {

/// Arms or disarms counting on the calling thread (CountingScope mode).
/// A test disarms before running FAIL()/ADD_FAILURE() machinery that
/// legitimately allocates. The flag itself stays inside
/// counting_alloc.cc: UBSan reported stores to it, made from other
/// translation units through an extern thread_local declaration, as
/// stores to a null pointer.
void SetThreadCounting(bool on);

/// Allocations recorded since the last reset, across all armed threads.
uint64_t AllocationCount();
void ResetAllocationCount();

/// Process-wide arming (GlobalCountingScope mode).
void SetGlobalCounting(bool on);
/// Excludes the calling thread from process-wide counting.
void SetThreadExcluded(bool excluded);

/// Counts allocations on the constructing thread while in scope.
struct CountingScope {
  CountingScope() {
    ResetAllocationCount();
    SetThreadCounting(true);
  }
  ~CountingScope() { SetThreadCounting(false); }
  uint64_t count() const { return AllocationCount(); }
};

/// Counts allocations on every thread but the constructing one (and
/// any other thread that called SetThreadExcluded(true)).
struct GlobalCountingScope {
  GlobalCountingScope() {
    SetThreadExcluded(true);
    ResetAllocationCount();
    SetGlobalCounting(true);
  }
  ~GlobalCountingScope() {
    SetGlobalCounting(false);
    SetThreadExcluded(false);
  }
  uint64_t count() const { return AllocationCount(); }
};

}  // namespace testsupport
}  // namespace watchman

#endif  // WATCHMAN_TESTS_SUPPORT_COUNTING_ALLOC_H_
