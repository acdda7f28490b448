// obs::Histogram -- the fixed-bucket distributions behind the
// "metrics_hist" table.
//
// Each histogram lives with the subsystem that observes into it (the
// service's response latency, the relay transport's hop count, the
// relays' shared queue occupancy, the runner's battery remaining).
// Buckets are fixed at construction, so two runs bucket identically.
#pragma once

#include <cstdint>
#include <vector>

namespace erasmus::obs {

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in strictly
/// increasing order; one implicit overflow bucket catches everything above
/// the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t total() const { return total_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
  double sum_ = 0.0;
};

}  // namespace erasmus::obs
