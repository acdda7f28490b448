#include "obs/histogram.h"

#include <algorithm>
#include <stdexcept>

namespace erasmus::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bucket bounds must be strictly increasing");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  ++total_;
  sum_ += v;
}

}  // namespace erasmus::obs
