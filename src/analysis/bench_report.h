// Machine-readable bench output: BENCH_<name>.json next to the text table.
//
// Each bench records named sample sets (one per measured quantity) and
// writes {"bench": ..., "quantities": {q: {count, mean, p50, p99}}} so the
// perf trajectory can be tracked across PRs by diffing/plotting the JSON
// instead of scraping stdout.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace erasmus::analysis {

/// True when "--quick" is among the arguments. Benches use it to bound
/// wall-clock in CI (skip repetition-style work: extra thread-count
/// reruns, optional sweeps) -- it must NEVER change a simulated
/// configuration, so every simulation-derived quantity keeps its
/// full-mode value and stays comparable against committed baselines.
bool bench_quick_mode(int argc, char** argv);

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Appends one sample of `quantity` (creates it on first use; insertion
  /// order is preserved in the JSON).
  void sample(const std::string& quantity, double value);

  /// The JSON document (deterministic byte layout).
  std::string to_json() const;

  /// Writes BENCH_<name>.json into `dir`; returns the path written, empty
  /// on I/O failure (after printing a warning to stderr). Benches MUST
  /// treat an empty return as fatal -- a silently missing BENCH json makes
  /// the CI baseline gate vacuous.
  std::string write(const std::string& dir = ".") const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::vector<double>>> quantities_;
};

}  // namespace erasmus::analysis
