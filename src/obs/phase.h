// Wall-clock phase profiling for barrier-style runners.
//
// The sharded runner alternates two phases: a parallel advance (every shard
// thread runs its own event queue to the barrier) and a single-threaded
// coordinator drain (collection, verification, metrics). The profiler
// accumulates, in real wall-clock time, where the worker threads' time
// actually goes:
//
//   shard_work    -- sum of per-shard busy time during advances
//   barrier_wait  -- thread-time parked at the join while siblings finish
//                    (threads x advance wall - shard busy)
//   coordinator   -- wall time of the single-threaded barrier work, during
//                    which threads-1 workers have nothing to do
//   reachability  -- the part of coordinator spent deciding who is
//                    reachable (kDirect's RadioLinks::reachable()); a
//                    split of coordinator, not a fourth phase
//
// barrier_wait_share() is the headline: the fraction of available worker
// thread-time NOT spent advancing shards. Flat thread scaling with a high
// share is the coordinator bottleneck made into a number. Wall-clock
// figures are host-dependent, so they are reported (bench tables, BENCH
// JSON) but never gated and never enter sim-derived metrics output.
#pragma once

#include <cstddef>
#include <cstdint>

namespace erasmus::obs {

class PhaseProfiler {
 public:
  /// One parallel advance: `threads` workers, `busy_ms_sum` the sum of
  /// their individual busy times, `wall_ms` the advance's wall time (the
  /// slowest worker).
  void record_advance(size_t threads, double busy_ms_sum, double wall_ms);
  /// One single-threaded coordinator drain of `wall_ms`.
  void record_coordinator(double wall_ms);
  /// `wall_ms` of reachability inside a drain that record_coordinator()
  /// also counts.
  void record_reachability(double wall_ms);

  struct Report {
    uint64_t rounds = 0;
    size_t threads = 0;
    double shard_work_ms = 0.0;
    double barrier_wait_ms = 0.0;
    double coordinator_ms = 0.0;
    /// Included in coordinator_ms.
    double reachability_ms = 0.0;
    /// (barrier_wait + (threads-1) x coordinator) / total thread-time;
    /// 0 when nothing was recorded.
    double barrier_wait_share = 0.0;
  };
  Report report() const;

 private:
  uint64_t rounds_ = 0;
  size_t threads_ = 0;
  double busy_ms_ = 0.0;
  double advance_wall_ms_ = 0.0;
  double coordinator_ms_ = 0.0;
  double reachability_ms_ = 0.0;
};

}  // namespace erasmus::obs
