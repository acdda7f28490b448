// The ERASMUS prover device.
//
// Owns the pieces Fig. 5(b)/7(b) show on Prv: the security architecture
// (SMART+ or HYDRA), the RROC, a hardware timer that autonomously triggers
// self-measurements, the rolling measurement store in unprotected memory,
// and the (unprotected) collection-phase request handling.
//
// Timing model: every operation charges virtual time from the device's
// DeviceProfile. A measurement makes the device busy for its full duration
// (the availability concern of §5); collection requests arriving while busy
// are served when the measurement completes.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "attest/measurement_store.h"
#include "attest/protocol.h"
#include "attest/schedule.h"
#include "hw/arch.h"
#include "hw/rroc.h"
#include "hw/timer.h"
#include "net/network.h"
#include "sim/device_profile.h"
#include "sim/event_queue.h"

namespace erasmus::attest {

/// What the prover does when the measurement timer fires during a
/// time-critical task (paper §5).
enum class ConflictPolicy {
  kMeasureAnyway,        // strict schedule; steals time from the task
  kAbortAndReschedule,   // lenient: retry at task end, within w*T_M window
  kSkip,                 // drop this measurement entirely (worst for QoA)
};

struct ProverConfig {
  crypto::MacAlgo algo = crypto::MacAlgo::kHmacSha256;
  sim::DeviceProfile profile = sim::DeviceProfile::msp430_8mhz();
  sim::Duration rroc_tick = sim::Duration::seconds(1);
  /// OD request timestamps older than this (in RROC ticks) are rejected.
  uint64_t od_freshness_window_ticks = 10;
  /// Build the RROC without write protection -- ONLY for reproducing the
  /// §3.4 attack in tests/benches.
  bool rroc_writable_for_attack_demo = false;
  ConflictPolicy conflict_policy = ConflictPolicy::kMeasureAnyway;
};

class Prover {
 public:
  /// `attested_region`: the memory the measurements cover (app RAM/flash).
  /// `store_region`: backing for the windowed measurement buffer.
  Prover(sim::EventQueue& queue, hw::SecurityArch& arch,
         hw::RegionId attested_region, hw::RegionId store_region,
         std::unique_ptr<Scheduler> scheduler, ProverConfig config);

  /// Arms the measurement timer. `initial_offset` staggers the first
  /// measurement (used for swarm scheduling, §6); the default fires after
  /// one full interval.
  void start(std::optional<sim::Duration> initial_offset = std::nullopt);
  void stop();

  // --- Collection phase (Fig. 2) -------------------------------------------
  struct CollectResult {
    CollectResponse response;
    /// Prover-side wall time: waiting out a busy measurement (if any) plus
    /// buffer read plus packet construction/send. NO cryptography.
    sim::Duration processing;
  };
  CollectResult handle_collect(const CollectRequest& req);

  // --- On-demand / ERASMUS+OD (Fig. 4) -------------------------------------
  struct OdResult {
    /// Empty when the request failed authentication or freshness (the
    /// protocol aborts silently -- anti-DoS).
    std::optional<OdResponse> response;
    sim::Duration processing;
  };
  OdResult handle_od(const OdRequest& req);

  // --- The one serve path ---------------------------------------------------
  /// Whether serve() replied, and if not, why.
  enum class Outcome : uint8_t {
    kReplied,
    kNotRequest,  // a response or unknown type: provers only serve requests
    kMalformed,   // the request body did not decode
    kRejected,    // OD failed freshness or authentication (silent abort)
  };
  struct Reply {
    Outcome outcome = Outcome::kNotRequest;
    MsgType type = MsgType::kCollectResponse;  // kReplied only
    Bytes body;                                // kReplied only
    /// Prover-side time until the reply leaves (see CollectResult); for
    /// kRejected, the time the checks took.
    sim::Duration processing;
  };
  /// Decodes one request, runs handle_collect or handle_od and encodes the
  /// reply. Every transport answers through here, so the answer cannot
  /// depend on what carried the request.
  Reply serve(MsgType type, ByteView body);

  // --- Network binding ------------------------------------------------------
  /// Attaches the prover to a simulated network node: incoming datagrams
  /// are served and replies are sent back to the requester after the
  /// prover-side processing delay.
  void bind(net::Network& network, net::NodeId id);

  // --- Time-critical task model (§5) ---------------------------------------
  /// Declares a window during which the device must not be interrupted.
  void add_critical_task(sim::Time begin, sim::Duration length);

  struct Stats {
    uint64_t measurements = 0;
    uint64_t aborted = 0;      // deferred by the lenient policy
    uint64_t skipped = 0;      // dropped by ConflictPolicy::kSkip
    uint64_t collections = 0;
    uint64_t od_accepted = 0;
    uint64_t od_rejected = 0;
    sim::Duration total_measurement_time;  // cumulative busy time
    sim::Duration task_interference;       // measurement time inside tasks
    sim::Duration max_schedule_slip;       // worst lenient-mode deferral
  };
  const Stats& stats() const { return stats_; }

  // --- Introspection (verifier setup, malware models, tests) ---------------
  hw::SecurityArch& arch() { return arch_; }
  hw::DeviceMemory& memory() { return arch_.memory(); }
  hw::RegionId attested_region() const { return attested_region_; }
  MeasurementStore& store() { return store_; }
  const MeasurementStore& store() const { return store_; }
  hw::Rroc& rroc() { return rroc_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  const ProverConfig& config() const { return config_; }
  /// Index of the most recent measurement (the `i` of Fig. 3).
  uint64_t latest_index() const { return latest_index_; }
  bool any_measurement_taken() const { return stats_.measurements > 0; }
  uint64_t attested_bytes() const;

  /// Observer invoked after each completed self-measurement with its RROC
  /// timestamp. Models side channels malware realistically has (activity /
  /// power traces reveal WHEN a measurement ran -- though never when the
  /// NEXT one will run, which is the point of irregular schedules).
  void set_measurement_observer(std::function<void(sim::Time, uint64_t)> fn) {
    measurement_observer_ = std::move(fn);
  }

 private:
  void on_timer();
  void perform_measurement();
  void schedule_next(uint64_t t_ticks);
  /// The critical task (if any) covering `at`.
  std::optional<std::pair<sim::Time, sim::Time>> task_covering(
      sim::Time at) const;
  sim::Duration overlap_with_tasks(sim::Time begin, sim::Time end) const;
  uint64_t slot_index_for(uint64_t t_ticks) const;

  sim::EventQueue& queue_;
  hw::SecurityArch& arch_;
  hw::RegionId attested_region_;
  MeasurementStore store_;
  std::unique_ptr<Scheduler> scheduler_;
  ProverConfig config_;
  hw::Rroc rroc_;
  hw::HwTimer timer_;

  std::vector<std::pair<sim::Time, sim::Time>> critical_tasks_;
  sim::Time busy_until_ = sim::Time::zero();
  uint64_t latest_index_ = 0;
  uint64_t seq_ = 0;             // measurements taken (irregular slot index)
  uint64_t last_od_treq_ = 0;    // anti-replay watermark
  sim::Time nominal_due_ = sim::Time::zero();  // for slip accounting
  bool running_ = false;
  Stats stats_;
  std::function<void(sim::Time, uint64_t)> measurement_observer_;
};

}  // namespace erasmus::attest
