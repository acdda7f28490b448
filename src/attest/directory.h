// Verifier-side device knowledge: per-device records and the shared core.
//
// The ERASMUS verifier is ONE logical party overseeing many unattended
// provers (§3, §6). Everything it must know about a device to judge its
// history is a DeviceRecord -- key K, golden-digest epochs, the schedule
// anchor, and the transport address. A DeviceDirectory maps device ids to
// records so a single verifier core (the free functions below) can judge
// any device. The directory owns every record it enrolls.
#pragma once

#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attest/protocol.h"
#include "attest/report.h"
#include "attest/schedule.h"
#include "crypto/mac.h"
#include "net/network.h"
#include "sim/time.h"

namespace erasmus::attest {

/// Verifier-side device id: an index into the directory. Distinct from the
/// transport-level net::NodeId, which names an endpoint, not a device.
using DeviceId = uint32_t;

/// Everything the verifier core needs to judge one device's measurements.
struct DeviceRecord {
  /// K, shared with the prover, with its MAC algorithm and the MAC state
  /// derived from it when the key is set. Every record MAC this record
  /// judges starts from that state; after the record is built, the verify
  /// pool only reads it.
  crypto::MacKey key;
  sim::Duration tick = sim::Duration::seconds(1);  // RROC granularity
  /// Golden-digest epochs: (first valid RROC tick, digest), sorted by
  /// tick. A software update appends an epoch so the legitimate pre-update
  /// history is not judged against the new image.
  std::vector<std::pair<uint64_t, Bytes>> goldens;
  /// Measurement schedule anchor (nullptr = no timestamp cross-checking).
  const Scheduler* scheduler = nullptr;  // not owned
  uint64_t schedule_t0 = 0;

  /// Replaces the reference state wholesale (all epochs).
  void set_golden(Bytes digest);
  /// Rotates the reference state at `from_ticks` (appended in time order).
  void rotate_golden(Bytes digest, uint64_t from_ticks);
  /// The digest a measurement taken at `t_ticks` must match.
  const Bytes& golden_at(uint64_t t_ticks) const;
  /// Current (latest-epoch) golden digest.
  const Bytes& golden() const;
};

// --- The shared verifier core ------------------------------------------------
// Free functions so ONE core judges any record, enrolled or not.

/// MAC + golden-digest verdict for one measurement.
MeasurementVerdict judge_measurement(const DeviceRecord& rec,
                                     const Measurement& m);

/// Validates a measurement history, newest first, against `rec`, in
/// place. `expected_k` is the k the verifier asked for (0 = don't check
/// the count). `now` is collection time.
CollectionReport verify_collection(const DeviceRecord& rec,
                                   std::span<const Measurement> history,
                                   sim::Time now, size_t expected_k = 0);
/// Validates a collection response: its measurements, as above.
CollectionReport verify_collection(const DeviceRecord& rec,
                                   const CollectResponse& resp, sim::Time now,
                                   size_t expected_k = 0);

/// Builds an authenticated ERASMUS+OD / on-demand request (Fig. 4).
OdRequest make_od_request(const DeviceRecord& rec, uint64_t now_ticks,
                          uint32_t k);

/// Validates an ERASMUS+OD response (fresh measurement plus history).
OdReport verify_od_response(const DeviceRecord& rec, const OdResponse& resp,
                            sim::Time now, uint64_t treq);

// --- The directory -----------------------------------------------------------

class DeviceDirectory {
 public:
  /// Enrolls a device; the directory owns its record. `node` is the
  /// device's transport address. Returns its DeviceId.
  DeviceId add(net::NodeId node, DeviceRecord record);

  const DeviceRecord& record(DeviceId id) const;
  /// Mutable access to a record (golden rotation, schedule anchor). The
  /// reference stays valid for the directory's lifetime.
  DeviceRecord& owned_record(DeviceId id);

  net::NodeId node(DeviceId id) const;
  /// Reverse lookup; nullopt when no device is enrolled at `node`.
  std::optional<DeviceId> by_node(net::NodeId node) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    net::NodeId node = 0;
    DeviceRecord* record = nullptr;  // arena slot
  };

  /// Records live in one arena instead of N heap allocations -- a fleet
  /// enrolls devices in id order, so the verifier core's record lookups
  /// walk contiguous(ish) memory during a batched verify pass. A deque
  /// never relocates on push_back, so Entry::record pointers and
  /// record() references stay valid across enrollment.
  std::deque<DeviceRecord> arena_;
  std::vector<Entry> entries_;
  std::unordered_map<net::NodeId, DeviceId> by_node_;
};

}  // namespace erasmus::attest
