// Authenticated cluster aggregates for hierarchical collection.
//
// At 10k+ devices, per-device relaying makes collection cost
// O(devices x hops): every CollectResponse transits the overlay tree
// individually. Hierarchical collection elects cluster heads inside the
// flood's parent tree (election.h); each head absorbs the child reports
// flowing through it and forwards ONE AggregateFrame instead -- a
// bitmap-of-healthy over the cluster, a hash-tree root committing to the
// raw per-member evidence, and a MAC under the head's own device key K.
// The verifier trusts set bits from an authenticated head, and
// demand-fetches raw evidence (a scoped/targeted re-collect) for any
// cleared bit, turning O(devices x hops) radio bytes into
// ~O(clusters x hops) plus a short raw hop per member.
//
// A head never vouches for itself: its own response is excluded from its
// aggregate and travels raw to the next head up the tree (or to the
// verifier), so a compromised head cannot whitewash its own state -- it
// can only force demand fetches, which are exactly the raw-evidence path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "crypto/mac.h"
#include "net/network.h"

namespace erasmus::aggregate {

/// One cluster head's combined view of its children for one flood.
struct AggregateFrame {
  uint32_t flood = 0;
  net::NodeId head = 0;
  /// Cluster members in strictly ascending node order -- the canonical
  /// form; anything else is rejected on deserialize so bitmap bits are
  /// never ambiguous. The head itself is NOT a member (see header note).
  std::vector<net::NodeId> members;
  /// Bit i (LSB-first within each byte) = members[i] healthy per the
  /// head's judgment. Exactly (members + 7) / 8 bytes.
  Bytes bitmap;
  /// Hash-tree root over the per-member evidence leaves (combine.h). The
  /// verifier audits demand-fetched raw evidence against it.
  Bytes root;
  /// Raw child-report bytes absorbed into this aggregate: the numerator
  /// of the compression ratio the runner reports.
  uint32_t raw_bytes = 0;
  /// MAC_K_head(aggregate_mac_input) -- computed inside the head's
  /// protected context, the only place K is readable.
  Bytes mac;

  bool healthy(size_t i) const {
    return i / 8 < bitmap.size() && ((bitmap[i / 8] >> (i % 8)) & 1) != 0;
  }

  Bytes serialize() const;
  static std::optional<AggregateFrame> deserialize(ByteView data);
};

/// The canonical byte string the head MACs: every field above except the
/// mac itself.
Bytes aggregate_mac_input(const AggregateFrame& frame);

/// Verifier-side authentication with the head's directory key (constant
/// time).
bool verify_aggregate(const AggregateFrame& frame, const crypto::Mac& key);

}  // namespace erasmus::aggregate
