#include "obs/registry.h"

#include <algorithm>
#include <limits>
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

void Registry::add(Entry entry) {
  for (const Entry& e : entries_) {
    if (e.subsystem == entry.subsystem && e.name == entry.name) {
      throw std::logic_error("obs::Registry: '" + entry.subsystem + "/" +
                             entry.name + "' registered twice");
    }
  }
  entries_.push_back(std::move(entry));
}

void Registry::counter(std::string subsystem, std::string name,
                       std::function<uint64_t()> read) {
  add({std::move(subsystem), std::move(name), Kind::kCounter,
       [read = std::move(read)] { return static_cast<double>(read()); }});
}

void Registry::gauge(std::string subsystem, std::string name,
                     std::function<double()> read) {
  add({std::move(subsystem), std::move(name), Kind::kGauge, std::move(read)});
}

void Registry::histogram(std::string subsystem, std::string name,
                         const Histogram& histogram) {
  add({std::move(subsystem), std::move(name), Kind::kHistogram, {},
       &histogram});
}

std::vector<Registry::Sample> Registry::snapshot() const {
  std::vector<Sample> samples;
  samples.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    Sample s;
    s.subsystem = entry.subsystem;
    s.name = entry.name;
    s.kind = entry.kind;
    if (entry.kind != Kind::kHistogram) {
      s.value = entry.read();
    } else {
      const Histogram& h = *entry.histogram;
      s.value = static_cast<double>(h.total());
      s.buckets.reserve(h.counts().size());
      for (size_t i = 0; i < h.counts().size(); ++i) {
        const double bound = i < h.bounds().size()
                                 ? h.bounds()[i]
                                 : std::numeric_limits<double>::infinity();
        s.buckets.emplace_back(bound, h.counts()[i]);
      }
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

}  // namespace erasmus::obs
