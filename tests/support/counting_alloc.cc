// Global allocator override with a counting hook. Linked exactly once
// into the test binary; see counting_alloc.h for the arming modes.

#include "support/counting_alloc.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace watchman {
namespace testsupport {

namespace {
thread_local bool t_counting = false;
std::atomic<uint64_t> g_allocations{0};
std::atomic<bool> g_global_counting{false};
thread_local bool t_excluded = false;

inline bool Armed() {
  if (t_counting) return true;
  return g_global_counting.load(std::memory_order_relaxed) && !t_excluded;
}
}  // namespace

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

void ResetAllocationCount() {
  g_allocations.store(0, std::memory_order_relaxed);
}

void SetGlobalCounting(bool on) {
  g_global_counting.store(on, std::memory_order_relaxed);
}

void SetThreadCounting(bool on) { t_counting = on; }

void SetThreadExcluded(bool excluded) { t_excluded = excluded; }

}  // namespace testsupport
}  // namespace watchman

void* operator new(std::size_t size) {
  if (watchman::testsupport::Armed()) {
    watchman::testsupport::g_allocations.fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  if (watchman::testsupport::Armed()) {
    watchman::testsupport::g_allocations.fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
