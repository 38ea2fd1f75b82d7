#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace watchman {

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  assert(hi > lo);
  assert(buckets > 0);
}

void Histogram::Add(double x) {
  size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::bucket_lo(size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bucket_hi(size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::Quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  // Skip empty buckets so extreme quantiles land in populated buckets:
  // q=0 must return the first occupied bucket's lower edge, not lo_,
  // when the leading buckets hold nothing.
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac = std::clamp(
          (target - cum) / static_cast<double>(counts_[i]), 0.0, 1.0);
      return bucket_lo(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::ToString(size_t max_rows) const {
  if (total_ == 0) return "(empty histogram)\n";
  std::string out;
  const size_t step =
      max_rows == 0 ? counts_.size()
                    : std::max<size_t>(1, counts_.size() / max_rows);
  char line[128];
  for (size_t i = 0; i < counts_.size(); i += step) {
    uint64_t c = 0;
    for (size_t j = i; j < std::min(i + step, counts_.size()); ++j) {
      c += counts_[j];
    }
    std::snprintf(line, sizeof(line), "[%11.3f, %11.3f) %10llu\n",
                  bucket_lo(i), bucket_hi(std::min(i + step, counts_.size()) - 1),
                  static_cast<unsigned long long>(c));
    out += line;
  }
  return out;
}

}  // namespace watchman
