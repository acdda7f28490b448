#include "obs/phase.h"

#include <algorithm>

namespace erasmus::obs {

void PhaseProfiler::record_advance(size_t threads, double busy_ms_sum,
                                   double wall_ms) {
  ++rounds_;
  threads_ = std::max(threads_, threads);
  busy_ms_ += busy_ms_sum;
  advance_wall_ms_ += wall_ms;
}

void PhaseProfiler::record_coordinator(double wall_ms) {
  coordinator_ms_ += wall_ms;
}

void PhaseProfiler::record_reachability(double wall_ms) {
  reachability_ms_ += wall_ms;
}

PhaseProfiler::Report PhaseProfiler::report() const {
  Report r;
  r.rounds = rounds_;
  r.threads = threads_;
  r.shard_work_ms = busy_ms_;
  const double n = static_cast<double>(threads_);
  // Clamp at zero: per-thread clocks and the join's wall clock are sampled
  // independently, so tiny negative residues are measurement noise.
  r.barrier_wait_ms = std::max(0.0, n * advance_wall_ms_ - busy_ms_);
  r.coordinator_ms = coordinator_ms_;
  r.reachability_ms = reachability_ms_;
  const double total = n * (advance_wall_ms_ + coordinator_ms_);
  if (total > 0.0) {
    r.barrier_wait_share =
        (r.barrier_wait_ms + (n - 1.0) * coordinator_ms_) / total;
  }
  return r;
}

}  // namespace erasmus::obs
