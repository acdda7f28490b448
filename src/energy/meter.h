// Live fleet energy metering: per-device battery budgets charged during
// simulation.
//
// The paper's pitch is attestation cheap enough for unattended,
// battery-bound swarms -- self-measurement exists precisely because energy,
// not CPU, is the binding constraint (§3.1). sim/energy.h quantifies that
// burden analytically for offline planning; this module charges it LIVE:
//
//  * CPU   -- one CostModel::measurement_nj per self-measurement, charged
//             from the prover's measurement observer (shard-side);
//  * radio -- tx/rx nanojoules per payload byte, charged from the
//             net::Network energy tap and the kDirect served-session
//             accounting (coordinator-side);
//  * sleep -- the idle floor, charged per round interval at barriers.
//
// A device whose DeviceMeter exhausts its capacity goes DARK: the runner
// stops its prover, the link filter mutes its radio, relays drop its
// queued reports -- a new failure mode that feeds back into the adaptive
// window, scoped-route repair and QoA.
//
// Determinism: a DeviceMeter is written by its own shard thread between
// barriers (measurement charges) and by the coordinator only while every
// shard is parked (radio, sleep, the dark sweep) -- the same alternating
// discipline as prover state, so fleet totals are byte-identical at any
// thread count. Accumulation is integer nanojoules with saturating adds:
// no float-order drift, no overflow UB.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/mac.h"
#include "hw/factory.h"
#include "sim/device_profile.h"
#include "sim/energy.h"
#include "sim/time.h"

namespace erasmus::energy {

/// The canonical per-architecture energy profile -- ONE table shared by
/// the analytical ledger (sim::attestation_energy callers) and the runtime
/// meter, so the two models cannot drift.
const sim::EnergyProfile& profile_for(hw::ArchKind kind);

/// kDirect wire model: the direct backend has no radio Network, so a
/// served session is charged these payload bytes -- one request heard, one
/// k-record report sent. energy::plan predicts with the same numbers.
inline constexpr size_t kDirectRequestBytes = 24;
inline constexpr size_t kDirectReportHeaderBytes = 20;
inline constexpr size_t kDirectRecordBytes = 73;

/// Saturating sim::Energy -> integer nanojoules (negatives clamp to 0).
uint64_t to_nanojoules(sim::Energy e);
sim::Energy from_nanojoules(uint64_t nj);

/// Per-device charge table in nanojoules, derived from the device's cost
/// profile (cycles/byte) and its architecture's EnergyProfile -- the same
/// inputs the analytic ledger uses.
struct CostModel {
  uint64_t measurement_nj = 0;   // one full self-measurement (CPU)
  uint64_t tx_nj_per_byte = 0;   // radio transmit, per payload byte
  uint64_t rx_nj_per_byte = 0;   // radio receive, per payload byte
  uint64_t sleep_nj_per_s = 0;   // idle floor

  static CostModel for_device(const sim::DeviceProfile& profile,
                              const sim::EnergyProfile& energy,
                              crypto::MacAlgo algo, uint64_t attested_bytes);
};

/// One device's battery. capacity_nj == 0 means metered but unlimited
/// (mains powered): every charge is recorded, dark() never fires.
class DeviceMeter {
 public:
  DeviceMeter() = default;
  DeviceMeter(CostModel cost, uint64_t capacity_nj)
      : cost_(cost), capacity_nj_(capacity_nj) {}

  /// Charges return true exactly when this charge newly exhausted the
  /// budget (the go-dark transition). A dark meter absorbs nothing: the
  /// MCU has browned out, it neither hashes nor keys the radio.
  bool charge_measurement(sim::Time at);
  /// Arbitrary CPU work in nanojoules (e.g. a cluster head's combine:
  /// hashing absorbed evidence plus one MAC), in the cpu bucket.
  bool charge_cpu(uint64_t nj, sim::Time at);
  bool charge_tx(size_t bytes, sim::Time at);
  bool charge_rx(size_t bytes, sim::Time at);
  bool charge_sleep(sim::Duration d, sim::Time at);

  bool dark() const { return dark_; }
  /// The instant of the exhausting charge (valid once dark()).
  sim::Time dark_at() const { return dark_at_; }

  uint64_t capacity_nj() const { return capacity_nj_; }
  uint64_t spent_nj() const { return cpu_nj_ + tx_nj_ + rx_nj_ + sleep_nj_; }
  uint64_t cpu_nj() const { return cpu_nj_; }
  uint64_t tx_nj() const { return tx_nj_; }
  uint64_t rx_nj() const { return rx_nj_; }
  uint64_t sleep_nj() const { return sleep_nj_; }
  /// Battery left as a fraction; 1.0 when unlimited.
  double remaining_fraction() const;
  const CostModel& cost() const { return cost_; }

 private:
  bool charge(uint64_t nj, uint64_t& bucket, sim::Time at);

  CostModel cost_;
  uint64_t capacity_nj_ = 0;
  uint64_t cpu_nj_ = 0;
  uint64_t tx_nj_ = 0;
  uint64_t rx_nj_ = 0;
  uint64_t sleep_nj_ = 0;
  bool dark_ = false;
  sim::Time dark_at_;
};

/// The fleet's meters, indexed by device id. Owned by the runner; shard
/// threads only ever touch their own devices' meters (see file comment).
class FleetMeter {
 public:
  explicit FleetMeter(std::vector<DeviceMeter> meters)
      : meters_(std::move(meters)) {}

  size_t size() const { return meters_.size(); }
  /// Bounds-checked (throws std::out_of_range).
  DeviceMeter& device(size_t id);
  const DeviceMeter& device(size_t id) const;
  bool dark(size_t id) const { return device(id).dark(); }
  size_t dark_count() const;

  struct Totals {
    double cpu_mj = 0.0;
    double tx_mj = 0.0;
    double rx_mj = 0.0;
    double sleep_mj = 0.0;
    double spent_mj() const { return cpu_mj + tx_mj + rx_mj + sleep_mj; }
  };
  /// Fleet-wide totals, summed in device-id order from the integer
  /// per-device ledgers (deterministic at any thread count).
  Totals totals() const;
  sim::Energy spent_total() const;

 private:
  std::vector<DeviceMeter> meters_;
};

}  // namespace erasmus::energy
