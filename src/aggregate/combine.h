// Head-side hold-and-combine: child reports in, one AggregateFrame out.
//
// The head holds the child CollectResponses that flow through it for a
// bounded aggregation window, judges each against its OWN latest
// self-measurement digest, and folds everything into the canonical
// AggregateFrame, which climbs the tree in an overlay::RelayReport of
// kind kAggregateReport (overlay/wire.h). The digest-equality judgment
// is sound exactly when the fleet runs a uniform image (every healthy
// device measures the same bytes): a diverging digest is not proof of
// infection -- the head holds no keys and proves nothing -- it is a
// cheap, unforgeable-to-improve triage signal. A cleared bit costs one
// demand fetch of raw evidence; a head lying with a SET bit is caught the
// moment that member's evidence is audited against the hash-tree root,
// and a head cannot clear bits to any effect beyond pushing members back
// onto the raw path it was supposed to compress.
#pragma once

#include <map>

#include "aggregate/frame.h"
#include "crypto/hash.h"

namespace erasmus::aggregate {

/// Evidence leaf for one member: H(origin_le32 || raw response bytes).
/// Binding the origin keeps two members with identical responses from
/// sharing a leaf (and an audited leaf from being replayed for another
/// device).
Bytes evidence_leaf(crypto::HashAlgo algo, net::NodeId origin,
                    ByteView response);

/// Hash-tree root over `leaves` in member order: pairwise H(left||right),
/// an odd tail promoted unchanged. Empty input -> all-zero digest.
Bytes hash_tree_root(crypto::HashAlgo algo, std::vector<Bytes> leaves);

class Combiner {
 public:
  /// `reference_digest`: the head's own latest measurement digest (the
  /// healthy-judgment yardstick). Empty = judge every member unhealthy.
  Combiner(crypto::HashAlgo hash, Bytes reference_digest);

  /// Absorbs one child report (the raw inner response bytes of a
  /// kRelayReport; aggregates are never absorbed). Duplicate origins keep
  /// the first evidence.
  void absorb(net::NodeId origin, ByteView response);

  size_t members() const { return entries_.size(); }
  uint64_t raw_bytes() const { return raw_bytes_; }

  /// Builds the canonical frame (sorted members, bitmap, root). `mac` is
  /// left empty: the head MACs inside its protected context, the only
  /// place its key is readable.
  AggregateFrame build(uint32_t flood, net::NodeId head) const;

 private:
  struct Entry {
    Bytes leaf;
    bool healthy = false;
  };

  crypto::HashAlgo hash_;
  Bytes reference_;
  std::map<net::NodeId, Entry> entries_;  // ordered => canonical members
  uint64_t raw_bytes_ = 0;
};

}  // namespace erasmus::aggregate
