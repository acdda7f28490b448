// ERASMUS self-measurement record (paper §3):
//
//     M_t = < t, H(mem_t), MAC_K(t, H(mem_t)) >
//
// `t` is the RROC value when the measurement was taken, H is the hash
// paired with the MAC construction, and MAC_K binds the timestamp to the
// memory digest under the device key K. Measurements are not secret and are
// stored/transmitted in the clear; their integrity rests entirely on MAC_K.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "common/serde.h"
#include "crypto/mac.h"
#include "hw/arch.h"

namespace erasmus::attest {

/// One record, trivially copyable: both fields are inline.
struct Measurement {
  uint64_t timestamp = 0;  // RROC ticks
  crypto::Digest digest;   // H(mem_t)
  crypto::Digest mac;      // MAC_K(t, H(mem_t))

  bool operator==(const Measurement&) const = default;

  /// Wire encoding: u64 t | u32 len | digest | u32 len | mac. The one
  /// record encoder and decoder every message uses. The decoder rejects a
  /// field longer than crypto::Digest::kMaxSize before copying it: no
  /// construction produces one, so such a record could never verify.
  void serialize(ByteWriter& w) const;
  static std::optional<Measurement> deserialize(ByteReader& r);

  /// The encoding as a whole message (trailing bytes are rejected).
  Bytes serialize() const;
  static std::optional<Measurement> deserialize(ByteView data);
};

/// The hash paired with each MAC construction (H in M_t). HMAC-X uses X;
/// keyed BLAKE2s uses unkeyed BLAKE2s for the memory digest.
crypto::HashAlgo hash_for(crypto::MacAlgo algo);

/// Computes M_t over `memory` under `key` (host-side primitive; no
/// architecture involvement -- used by the verifier to derive expected
/// values and by tests). The MAC input is u64 t (little-endian) followed
/// by the digest. Allocation-free.
Measurement compute_measurement(const crypto::Mac& key, ByteView memory,
                                uint64_t t);

/// Computes M_t *inside* the security architecture's protected environment:
/// the attested region is read with privileged access and K is obtained
/// through the ProtectedContext -- the only legal path to it. This is the
/// code path the prover uses (paper: "The computation of H(mem_t) and MAC is
/// done in the context of the security architecture"). The MAC state is
/// derived from K inside the section and does not outlive it.
Measurement compute_measurement_protected(hw::SecurityArch& arch,
                                          crypto::MacAlgo algo,
                                          hw::RegionId attested_region,
                                          uint64_t t);

/// Recomputes MAC_K(t, H(mem_t)) and compares it in constant time.
/// Allocation-free.
bool verify_measurement(const crypto::Mac& key, const Measurement& m);

}  // namespace erasmus::attest
