// A fixed-bucket histogram. Only its own tests use it; the daemon's
// metrics use obs/metrics.h instead.

#ifndef WATCHMAN_UTIL_STATS_H_
#define WATCHMAN_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace watchman {

/// Fixed-bucket histogram over [lo, hi) with out-of-range clamping.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);

  size_t bucket_count() const { return counts_.size(); }
  uint64_t bucket(size_t i) const { return counts_[i]; }
  uint64_t total() const { return total_; }
  double bucket_lo(size_t i) const;
  double bucket_hi(size_t i) const;

  /// Approximate quantile (q in [0,1]) by linear interpolation within the
  /// containing bucket.
  double Quantile(double q) const;

  std::string ToString(size_t max_rows = 16) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace watchman

#endif  // WATCHMAN_UTIL_STATS_H_
