// obs::Registry -- the read-only catalogue behind the "metrics" tables.
//
// Every count has exactly one ledger: the subsystem that keeps it (the
// service's and the overlay's Stats, the direct transport's batch
// counters, the fleet meter). The catalogue holds no values of its own:
// for each counter or gauge it keeps a reader that fetches the owner's
// current value, and for each histogram a reference to the histogram its
// owner observes into. The ShardedFleetRunner registers the whole table in
// one place and snapshots it once per collection round, on the
// coordinator at the round's barrier while every shard is parked, so the
// readers see a quiescent fleet. Everything is deterministic: entries
// iterate in registration order, and histogram buckets are fixed at
// construction so two runs bucket identically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
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

class Registry {
 public:
  /// Each (subsystem, name) is registered once; a second registration
  /// throws std::logic_error (two owners claiming one name is a bug).
  /// Readers run at every snapshot() and must stay callable until the
  /// last one; so must a registered histogram.
  void counter(std::string subsystem, std::string name,
               std::function<uint64_t()> read);
  void gauge(std::string subsystem, std::string name,
             std::function<double()> read);
  void histogram(std::string subsystem, std::string name,
                 const Histogram& histogram);

  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  /// One registered instrument's current state.
  struct Sample {
    std::string subsystem;
    std::string name;
    Kind kind = Kind::kCounter;
    /// Counter: count. Gauge: level. Histogram: total observations.
    double value = 0.0;
    /// Histogram only: (upper bound, count) per bucket; the overflow
    /// bucket's bound is +infinity.
    std::vector<std::pair<double, uint64_t>> buckets;
  };
  /// All instruments in registration order (deterministic).
  std::vector<Sample> snapshot() const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string subsystem;
    std::string name;
    Kind kind;
    std::function<double()> read;          // counters and gauges
    const Histogram* histogram = nullptr;  // histograms
  };
  void add(Entry entry);

  std::vector<Entry> entries_;
};

}  // namespace erasmus::obs
