#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common.h"

namespace watchman::e2e {
namespace {

/// Length of the union of `intervals` (sorted in place).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>>* intervals) {
  std::sort(intervals->begin(), intervals->end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  for (const auto& [start, end] : *intervals) {
    if (start > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

}  // namespace

double SpanSummary::MeanUs(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.mean_us;
}

double SpanSummary::MeanSelfUs(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.mean_self_us;
}

SpanSummary Summarize(const std::vector<const SpanBuffer*>& buffers) {
  SpanSummary out;
  std::map<std::string, std::pair<double, double>> sums;  // dur, self (ns)
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                              s.end_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      SpanSummary::Entry& entry = out.by_name[s.name];
      ++entry.count;
      sums[s.name].first += dur;
      sums[s.name].second +=
          dur - static_cast<double>(UnionLength(&children[i]));
    }
  }
  for (auto& [name, entry] : out.by_name) {
    const double n = static_cast<double>(entry.count);
    entry.mean_us = sums[name].first / n / 1e3;
    entry.mean_self_us = sums[name].second / n / 1e3;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers) {
  int64_t origin = INT64_MAX;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& s : buffer->spans()) origin = std::min(origin, s.start_ns);
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (first ? "\n" : ",\n") << "{\"name\":" << JsonString(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
          << ",\"ts\":"
          << JsonNumber(static_cast<double>(s.start_ns - origin) / 1e3)
          << ",\"dur\":"
          << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"query\":" << s.query << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace watchman::e2e
