// Verdicts and reports produced when collected histories are judged.
//
// Produced by the verifier core (directory.h): per-measurement verdicts,
// the per-collection CollectionReport (Fig. 2, right side) and the
// ERASMUS+OD report (Fig. 4).
//
// Per §3.4, *any* inconsistency in the returned history -- a bad MAC, an
// off-schedule timestamp, a gap, a reordering, or fewer records than
// requested -- is treated as evidence of malware: benign operation never
// produces it (the store is only written by protected code).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "attest/measurement.h"
#include "sim/time.h"

namespace erasmus::attest {

enum class MeasurementStatus : uint8_t {
  kHealthy,     // authentic and digest matches the golden state
  kInfected,    // authentic but digest differs: malware was resident at t
  kBadMac,      // forged or corrupted record
  kOffSchedule, // authentic MAC but timestamp not on the expected schedule
};

std::string to_string(MeasurementStatus s);

struct MeasurementVerdict {
  Measurement m;
  MeasurementStatus status = MeasurementStatus::kBadMac;
};

struct CollectionReport {
  std::vector<MeasurementVerdict> verdicts;  // newest first
  /// Authentic digest mismatch in some measurement: malware was present at
  /// that time (detected even if it has since left -- the mobile-malware
  /// win over on-demand RA).
  bool infection_detected = false;
  /// Evidence of history manipulation: bad MAC, schedule gap/violation,
  /// reordering, or a short response.
  bool tampering_detected = false;
  /// now - timestamp of the newest *authentic* measurement; nullopt when
  /// nothing authentic came back.
  std::optional<sim::Duration> freshness;
  /// Expected-but-missing measurements (when a schedule is configured).
  size_t missing = 0;
  std::string note;

  bool device_trustworthy() const {
    return !infection_detected && !tampering_detected;
  }
};

struct OdReport {
  MeasurementVerdict fresh;
  CollectionReport history;
  /// Fresh measurement authentic and its timestamp plausibly current.
  bool fresh_valid = false;
};

}  // namespace erasmus::attest
