// Spans recorded at the benchmark's own call sites: a root span per
// query (or update) with a child per client call and per warehouse
// synthesis. Each recording thread owns a preallocated buffer, so
// recording takes no lock and never allocates; buffers are merged and
// written as Chrome trace-event JSON after the run.

#ifndef WATCHMAN_BENCHMARK_SPANS_H_
#define WATCHMAN_BENCHMARK_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace watchman::e2e {

struct Span {
  /// Static string: "query", "client.get", "warehouse", "client.fill",
  /// "client.update", "sim.cell".
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same buffer, or -1 for a root.
  int32_t parent = -1;
  uint32_t thread = 0;
  /// Query index (or relation bit for updates).
  uint64_t query = 0;
};

/// One thread's span buffer. Spans beyond its capacity are not
/// recorded.
class SpanBuffer {
 public:
  SpanBuffer(uint32_t thread, size_t capacity) : thread_(thread) {
    spans_.reserve(capacity);
  }

  /// Opens a root span; returns its index, or -1 when the buffer is
  /// full (its children are then dropped too).
  int32_t Open(const char* name, int64_t start_ns, uint64_t query) {
    return Push({name, start_ns, start_ns, -1, thread_, query});
  }
  void Close(int32_t root, int64_t end_ns) {
    if (root >= 0) spans_[static_cast<size_t>(root)].end_ns = end_ns;
  }
  /// Records a finished child of `root`.
  void Child(int32_t root, const char* name, int64_t start_ns,
             int64_t end_ns) {
    if (root < 0) return;
    Push({name, start_ns, end_ns, root, thread_,
          spans_[static_cast<size_t>(root)].query});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int32_t Push(const Span& span) {
    if (spans_.size() == spans_.capacity()) return -1;
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }

  uint32_t thread_;
  std::vector<Span> spans_;
};

/// Per-name means over all buffers: total duration per span and, for
/// roots, self time (duration minus the union of its children).
struct SpanSummary {
  struct Entry {
    uint64_t count = 0;
    double mean_us = 0.0;
    double mean_self_us = 0.0;
  };
  std::map<std::string, Entry> by_name;

  double MeanUs(const std::string& name) const;
  double MeanSelfUs(const std::string& name) const;
};
SpanSummary Summarize(const std::vector<const SpanBuffer*>& buffers);

/// Writes every span as a Chrome trace-event "X" event; returns false
/// when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers);

}  // namespace watchman::e2e

#endif  // WATCHMAN_BENCHMARK_SPANS_H_
