// QoA-per-joule planning: choose (T_M, window policy, collection backend)
// to maximize detection quality per joule under a fleet energy budget.
//
// The two planners answer different questions:
//  * analysis/qoa_planner.h: "what is the cheapest (T_M, T_C) that meets
//    a detection goal?" It searches T_C as well, and rejects any pair
//    that breaks the goal's latency bound (T_M + T_C) or battery-life
//    target.
//  * this planner: "given the deployment I actually have -- radio loss,
//    relay depth, battery and a FIXED collection interval
//    (Mission::round_interval) -- which T_M, window and backend buy the
//    most QoA per joule?" T_C is an input here, and no latency bound or
//    battery-life goal is checked. The Decision plugs straight into
//    ShardedFleetConfig.
//
// The shape of the optimum: per-mission energy is E(tm) = a/tm + b
// (measurements every tm cost a/tm; radio + sleep are ~tm-independent),
// and detection probability for a dwell D is p(tm) = min(1, D/tm). So
// QoA/J rises with tm while tm <= D (same detections, fewer joules) and
// falls for tm > D (p and the measurement term shrink together, the
// constant b keeps dividing) -- the maximum sits exactly at tm = D. A
// fixed grid that brackets the dwell loses on both sides, which is what
// bench_energy_qoa demonstrates.
#pragma once

#include <string>

#include "energy/meter.h"
#include "obs/trace.h"

namespace erasmus::energy {

/// What the fleet is made of (one representative class; heterogeneous
/// fleets plan per class).
struct FleetModel {
  size_t devices = 50;
  hw::ArchKind arch = hw::ArchKind::kSmartPlus;
  sim::DeviceProfile profile = sim::DeviceProfile::msp430_8mhz();
  crypto::MacAlgo algo = crypto::MacAlgo::kHmacSha256;
  uint64_t attested_bytes = 2 * 1024;
  size_t k = 8;             // records per collection
  size_t record_bytes = kDirectRecordBytes;
  /// Radio neighbourhood of the deployment: how many neighbours hear a
  /// transmission, and the expected relay depth to the collection root.
  double mean_degree = 8.0;
  double mean_hops = 3.0;
};

/// What the mission demands and what it pays with.
struct Mission {
  /// Dwell time of the malware that must be caught (sets the QoA term).
  sim::Duration dwell = sim::Duration::minutes(10);
  sim::Duration round_interval = sim::Duration::minutes(30);
  size_t rounds = 4;
  /// Per-hop datagram loss of the radio environment.
  double loss = 0.0;
  /// Direct backhaul to every device (kDirect is only an option when the
  /// deployment has infrastructure; a field swarm does not).
  bool infrastructure = false;
  /// Per-device energy for the whole mission; 0 microjoules = mains.
  sim::Energy device_budget{};
};

enum class BackendChoice : uint8_t { kDirect, kOverlay, kScoped };
const char* to_string(BackendChoice b);

struct Decision {
  sim::Duration tm = sim::Duration::minutes(10);
  BackendChoice backend = BackendChoice::kOverlay;
  bool adaptive_window = false;
  /// Model predictions for the chosen configuration.
  double detection_prob = 0.0;
  sim::Energy predicted_device_energy;  // whole mission, one device
  double predicted_qoa_per_joule = 0.0;
  /// '|'-separated reason codes ("tm_matched_dwell|backend_scoped_lossy").
  std::string reasons;
};

/// Predicted per-device mission energy for an explicit (tm, backend) --
/// the model the planner searches; exposed for tests and benches.
sim::Energy predict_device_energy(const FleetModel& fleet,
                                  const Mission& mission, sim::Duration tm,
                                  BackendChoice backend);

/// Predicted per-round collection reach (fraction of the fleet whose
/// report survives the radio) under `backend`.
double predict_reach(const FleetModel& fleet, const Mission& mission,
                     BackendChoice backend);

/// Predicted mission QoA (reach-weighted detection prob, summed over
/// rounds) divided by predicted per-device joules.
double predict_qoa_per_joule(const FleetModel& fleet, const Mission& mission,
                             sim::Duration tm, BackendChoice backend);

/// Picks backend, T_M and window policy maximizing predicted QoA/J subject
/// to the mission budget. When `trace` is non-null the decision is emitted
/// as a kEnergy "planner_decision" instant with its reason codes. Throws
/// std::invalid_argument unless 0 <= mission.loss <= 1.
Decision plan(const FleetModel& fleet, const Mission& mission,
              obs::TraceRecorder* trace = nullptr);

}  // namespace erasmus::energy
