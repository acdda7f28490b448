// Software update and secure-erasure flows.
//
// The paper's NOTE (§1): ERASMUS does not replace on-demand attestation --
// "for some devices and some settings, real-time on-demand attestation is
// mandatory, e.g., immediately before or after a software update or for
// secure erasure/reset." This module implements those maintenance flows on
// top of the ERASMUS+OD machinery:
//
//   update:  attest-before (fresh OD measurement, must be healthy)
//            -> authenticated image install -> attest-after (must match the
//            new image) -> verifier rotates its golden digest.
//
//   erase:   authenticated erase command -> prover zeroises application
//            memory AND the measurement store in protected mode -> fresh OD
//            measurement proves the erased state.
#pragma once

#include "attest/directory.h"
#include "attest/prover.h"

namespace erasmus::attest {

/// Authenticated maintenance command (update or erase). The MAC covers the
/// operation tag, the timestamp and the image digest, so a MITM can neither
/// replay an old update nor swap the payload.
struct MaintenanceRequest {
  enum class Op : uint8_t { kUpdate = 1, kErase = 2 };

  Op op = Op::kUpdate;
  uint64_t treq = 0;
  Bytes image;  // new software image (empty for erase)
  Bytes mac;

  static Bytes mac_input(Op op, uint64_t treq, ByteView image_digest,
                         crypto::MacAlgo algo);

  Bytes serialize() const;
  static std::optional<MaintenanceRequest> deserialize(ByteView data);
};

/// Prover-side handling: verifies freshness + MAC inside the protected
/// environment, then installs/erases. Returns the time charged; nullopt
/// when the request was rejected (no state change).
std::optional<sim::Duration> handle_maintenance(Prover& prover,
                                                const MaintenanceRequest& req);

/// Verifier-side orchestration of the full §1-NOTE flow, judging and
/// rotating the device's DeviceRecord through the shared verifier core
/// (pass a DeviceDirectory's owned_record() and the rotation is visible to
/// any AttestationService overseeing the device).
class MaintenanceAuthority {
 public:
  /// `record` must outlive the authority; run_update() rotates its golden
  /// epochs in place on success.
  MaintenanceAuthority(DeviceRecord& record, sim::EventQueue& queue)
      : record_(record), queue_(queue) {}

  struct UpdateOutcome {
    bool pre_attestation_ok = false;   // device healthy before the update
    bool request_accepted = false;     // prover verified and installed
    bool post_attestation_ok = false;  // device measures as the new image
    Bytes new_golden_digest;
  };

  /// Runs attest-update-attest against a (directly reachable) prover.
  /// On full success the verifier's golden digest is rotated.
  UpdateOutcome run_update(Prover& prover, ByteView new_image);

  struct EraseOutcome {
    bool request_accepted = false;
    bool erased_state_proven = false;  // fresh measurement matches zeroised
  };

  /// Runs authenticated secure erasure + proof of erasure.
  EraseOutcome run_erase(Prover& prover);

 private:
  /// Fresh on-demand measurement, compared against `expected_digest`.
  bool attest_now(Prover& prover, ByteView expected_digest);

  DeviceRecord& record_;
  sim::EventQueue& queue_;
};

}  // namespace erasmus::attest
