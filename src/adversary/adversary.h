// Deterministic adversary engine: scripted attacks against a running fleet.
//
// The paper's central claim (§3.5, §7) is that periodic self-measurement
// catches *mobile* malware -- code that migrates between devices trying to
// dodge each host's next measurement -- with probability approaching 1 once
// T_M drops below the time the malware must dwell on a host to do anything
// useful. This engine makes that claim measurable: it plans an infection
// itinerary BEFORE the run (a pure function of config + fleet plan), injects
// and removes payloads on schedule, watches self-measurements capture them,
// and stamps each campaign with the sim-time from infection to the first
// failed attestation verdict (detection latency).
//
// Determinism contract (the runner's 1/2/8-thread byte-identity invariant
// extends to every adversary metric and trace):
//  * Planning happens in the constructor from (config, specs) only -- no
//    clock, no shard layout, no shared RNG. The itinerary is identical at
//    any thread count.
//  * Shard-side hooks (enter_leg / leave_leg / on_measurement) touch only
//    per-device slots of preallocated vectors -- the same lock-free
//    discipline TraceShard and DeviceMeter use.
//  * Coordinator-side hooks (verdicts, link vetoes, trace emission,
//    snapshots) run single-threaded at barriers, after the shard join.
//
// The measurement-aware strategy plans against the ANALYTIC schedule
// (stagger offset + k * nominal T_M). Real provers reschedule from
// measurement *completion*, so actual measurement times only ever drift
// later than the analytic prediction -- which makes "leave before the
// predicted tick" conservative: an aware adversary never gets caught by a
// measurement landing earlier than planned. Irregular (key-derived)
// schedules are unpredictable without K, so against them the aware strategy
// degrades to hopeful guessing -- exactly the paper's argument for them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "attest/prover.h"
#include "obs/trace.h"
#include "sim/time.h"
#include "swarm/provision.h"

namespace erasmus::adversary {

/// Which attacker family the engine runs (scenario knob `adversary=`).
enum class Mode : uint8_t {
  kOff,      // engine inert (fault injection may still be scheduled)
  kRoaming,  // mobile malware migrating between devices
  kRelay,    // compromised relay nodes dropping/corrupting relayed frames
  kSybil,    // compromised relays flooding forged-origin reports
};

/// Roaming migration strategy (scenario knob `migration=`).
enum class Migration : uint8_t {
  kRandomWalk,  // hop to a random free host, sit a full dwell
  kAware,       // pick the host with the most slack before its next
                // (predicted) measurement; flee just before the tick
  kDwellBound,  // random host, dwell drawn uniform in [dwell/2, dwell]
};

/// Throws std::invalid_argument naming the bad value (loud-knob style).
Mode parse_mode(const std::string& text);
Migration parse_migration(const std::string& text);

/// Scheduled network partition: the fleet is cut in half (device id below
/// fleet/2 vs the rest) from `at` until `at + heal_after`.
struct PartitionEvent {
  sim::Time at;
  sim::Duration heal_after;
};

/// Scheduled loss burst on the overlay radio: loss probability jumps to
/// `loss` at `at` and reverts to the configured baseline after `duration`.
struct LossBurst {
  sim::Time at;
  sim::Duration duration;
  double loss = 0.5;
};

struct EngineConfig {
  Mode mode = Mode::kOff;
  Migration migration = Migration::kAware;
  /// How long the malware must sit on one host to do useful work -- the
  /// paper's lever: detection probability rises toward 1 as T_M drops
  /// below this.
  sim::Duration dwell = sim::Duration::minutes(12);
  /// Independent roaming campaigns (each its own infection chain).
  size_t chains = 2;
  /// First infections land within [first_infection, first_infection +
  /// dwell), spread per-chain by the seeded RNG.
  sim::Duration first_infection = sim::Duration::minutes(5);
  uint64_t seed = 1;
  /// kRelay/kSybil: fraction of relay nodes compromised (at least one).
  double compromised_fraction = 0.15;
  /// kRelay: corrupt relayed frames instead of dropping them.
  bool corrupt_frames = false;
  /// kSybil: forged-origin reports injected per first-sight flood.
  uint32_t sybil_per_flood = 4;
  /// Network fault injection, active in any mode (kOff included).
  std::vector<PartitionEvent> partitions;
  std::vector<LossBurst> loss_bursts;
};

/// One residency of one chain on one host, planned before the run.
/// enter/leave and the classification flags are written at plan time; the
/// runtime flags below are written shard-side by the owning device's
/// thread and read by the coordinator at barriers (the thread join is the
/// synchronization point).
struct Leg {
  size_t chain = 0;
  swarm::DeviceId device = 0;
  sim::Time enter;
  sim::Time leave;
  const char* reason = "";  // strategy tag for traces (static string)
  bool first = false;       // chain's initial infection (infect vs migrate)
  bool evade = false;       // leaves early to dodge the predicted tick
  bool forced = false;      // evasion budget spent: sits through the tick
  // Runtime (shard-written):
  bool entered = false;
  bool left = false;
  bool measured = false;    // a self-measurement ran while resident
  sim::Time measured_at;    // first such measurement
};

class Engine {
 public:
  /// Plans the full itinerary. `specs` reproduce the runner's analytic
  /// (staggered) measurement schedule; `horizon` bounds planning (rounds *
  /// round_interval). Pure function of its arguments.
  Engine(EngineConfig config, const std::vector<swarm::DeviceSpec>& specs,
         swarm::DeviceId root, sim::Time horizon);

  const EngineConfig& config() const { return config_; }
  const std::vector<Leg>& legs() const { return legs_; }

  // --- Shard-side hooks (owning device's thread, between barriers) ---

  /// Implants the payload: saves the overwritten bytes, scribbles the
  /// attested region, marks the leg resident.
  void enter_leg(size_t leg, attest::Prover& prover);
  /// Restores the saved bytes and clears residency (the mobile-malware
  /// self-clean that makes past-infection detection interesting).
  void leave_leg(size_t leg, attest::Prover& prover);
  /// Measurement-observer hook: if a chain is resident on `device`, the
  /// measurement captured its payload.
  void on_measurement(swarm::DeviceId device, sim::Time at);

  // --- Coordinator-side (barriers / collection only) ---

  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Feeds one attestation verdict. A failed verdict on a device hosting
  /// a measured, not-yet-detected leg detects that chain (detection
  /// latency = at - chain start) and emits a kAdversary "detected"
  /// instant. Any other failed verdict (a repeat flag of a detected
  /// chain, or one no measured leg explains) changes nothing.
  void on_verdict(swarm::DeviceId device, bool healthy, sim::Time at);

  /// True when relay node `id` is compromised (kRelay/kSybil only).
  bool relay_compromised(swarm::DeviceId id) const;

  /// Partition veto for link predicates: false while a scheduled
  /// partition separates `a` and `b`.
  bool link_allowed(swarm::DeviceId a, swarm::DeviceId b,
                    sim::Time at) const;

  /// Replays itinerary instants (infect/migrate/evade/leave/captured)
  /// with timestamps in (last call, upto] into the kAdversary trace
  /// category, sorted by (time, leg). Call at barriers, after the shard
  /// merge -- like the runner's dark sweep, events may carry timestamps
  /// inside the interval just simulated.
  void emit_trace(sim::Time upto);

  /// Cumulative campaign counters (coordinator-side; the runner emits
  /// per-round deltas).
  struct Snapshot {
    uint64_t infections = 0;   // first legs entered
    uint64_t migrations = 0;   // subsequent legs entered
    uint64_t evasions = 0;     // evade legs completed
    uint64_t captures = 0;     // legs a self-measurement caught
    uint64_t detections = 0;   // chains with a failed verdict
    uint64_t active = 0;       // legs currently resident
    double mean_detection_latency_ms = 0.0;  // over detected chains
  };
  Snapshot snapshot() const;

  // --- Campaign results (for scenarios and benches) ---
  size_t chain_count() const { return chains_.size(); }
  size_t detected_chains() const;
  /// detected / planned chains; 0 when no chains were planned.
  double detection_probability() const;
  /// Mean infection-to-first-failed-verdict time over detected chains.
  sim::Duration mean_detection_latency() const;

 private:
  struct Chain {
    sim::Time started;
    bool detected = false;
    sim::Time detected_at;
  };

  /// The analytic k-th-measurement instant strictly after `t` for device
  /// `d` (stagger offset + steps of nominal T_M).
  sim::Time next_measurement(swarm::DeviceId d, sim::Time t) const;
  bool interval_free(swarm::DeviceId d, sim::Time from, sim::Time to) const;
  void plan_roaming();
  void plan_compromised_relays();

  EngineConfig config_;
  size_t fleet_ = 0;
  swarm::DeviceId root_ = 0;
  sim::Time horizon_;
  std::vector<sim::Duration> first_;   // analytic first measurement offset
  std::vector<sim::Duration> period_;  // nominal T_M per device

  std::vector<Leg> legs_;
  std::vector<Chain> chains_;
  std::vector<std::vector<std::pair<sim::Time, sim::Time>>> busy_;
  /// Per-device residency (index into legs_, -1 = clean) and the bytes the
  /// payload overwrote. Shard threads touch only their own devices' slots.
  std::vector<int32_t> active_leg_;
  std::vector<Bytes> saved_;
  std::vector<bool> compromised_;

  obs::TraceRecorder* trace_ = nullptr;
  sim::Time last_emit_;
};

}  // namespace erasmus::adversary
