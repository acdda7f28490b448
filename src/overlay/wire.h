// Wire protocol of the multi-hop collection overlay.
//
// The overlay moves ordinary attest:: protocol messages across a swarm
// whose only connectivity is whatever multi-hop path exists at the instant
// of each send (paper §6). Four frame types do all the work:
//
//  * CollectFlood  -- carries one verifier request outward. Every flood
//    has its own id and builds its own parent tree as it propagates: a
//    node's uplink for flood F is whichever neighbour it first heard F
//    from. The TTL bounds discovery depth; `targets` scopes who serves
//    the request ({kEveryone} for a full round, the current dispatch
//    window's devices for a windowed batch, one node for a retry).
//  * RelayReport   -- the one uplink envelope. It carries one prover
//    response (kRelayReport) or one cluster head's aggregate
//    (kAggregateReport) back up the flood's parent tree, store-and-forward
//    hop by hop. Relays never parse, verify or re-MAC the payload ("only
//    relays reports and does not perform any computation", LISA-alpha);
//    they bump the hop count, append themselves to the path record and
//    fold in their own queue occupancy -- giving the verifier a usable
//    downlink route and a congestion signal for free.
//  * ScopedRequest -- a retry for a device whose uplink path is still
//    fresh: a source-routed unicast down the recorded path instead of a
//    whole-swarm re-flood. Each hop records the sender as its parent for
//    the scoped flood id, so the response report returns over the same
//    hops with the ordinary RelayReport machinery.
//  * ScopedNak     -- sent back up when a scoped hop finds its next hop
//    out of radio range; tells the verifier the cached route is stale so
//    the next retry falls back to a re-flood.
//
// The inner request/response bytes are exactly what attest::Transport
// peers exchange, so the AttestationService session machine runs unchanged
// on top: the overlay is routing, not protocol.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "net/network.h"

namespace erasmus::overlay {

/// Wire tags, disjoint from attest::MsgType (which starts at 1).
enum class RelayMsg : uint8_t {
  kCollectFlood = 0x20,
  kRelayReport = 0x21,
  kScopedRequest = 0x22,
  kScopedNak = 0x23,
  kAggregateReport = 0x24,
};

/// CollectFlood targets wildcard: every node that hears the flood serves.
inline constexpr net::NodeId kEveryone = 0xffffffffu;

/// Flood-state memory sized for a fleet: in the worst case one round
/// broadcast plus one targeted retry flood PER session is in flight at
/// once. Undersizing is not a graceful degradation -- a relay that
/// forgets a live flood orphans its reports, and a transport that
/// forgets one turns valid responses into stale reports, forcing retry
/// floods. Both RelayNodeConfig::flood_memory and
/// RelayTransportConfig::flood_memory should use this for fleet-scale
/// deployments.
inline constexpr size_t flood_memory_for(size_t fleet) {
  return fleet + 16;
}

/// CollectFlood flag: cluster heads may absorb this flood's reports into
/// aggregate frames. Round broadcasts set it; single-target retries and
/// demand fetches never do -- their whole point is raw per-device evidence.
inline constexpr uint8_t kFloodAggregate = 0x01;

struct CollectFlood {
  uint32_t flood = 0;      // flood id == parent-tree id
  uint8_t ttl = 8;         // remaining re-flood budget
  /// Re-broadcasts behind this frame: the verifier launches with 0, every
  /// forwarder increments (saturating). A node that first hears the flood
  /// at depth d sits d+1 hops from the verifier -- the input to depth-band
  /// cluster-head election.
  uint8_t depth = 0;
  uint8_t flags = 0;       // kFloodAggregate
  uint8_t inner_type = 0;  // attest::MsgType of `request`
  /// Who serves: {kEveryone}, or an explicit device list (a windowed
  /// dispatch batch, or a single retry target). Everyone still FORWARDS;
  /// scoping only bounds who answers, and with it the report volume one
  /// flood injects into the relay queues.
  std::vector<net::NodeId> targets{kEveryone};
  Bytes request;  // serialized attest request body

  bool serves(net::NodeId node) const {
    return std::find(targets.begin(), targets.end(), kEveryone) !=
               targets.end() ||
           std::find(targets.begin(), targets.end(), node) != targets.end();
  }

  Bytes serialize() const;
  static std::optional<CollectFlood> deserialize(ByteView data);
};

/// The uplink envelope of both kinds. A kRelayReport carries one prover's
/// attest response. A kAggregateReport carries one cluster head's
/// serialized aggregate::AggregateFrame, opaque to relays: heads upstream
/// forward it unchanged, there is no re-aggregation. The two bodies differ
/// only in `inner_type`, which an aggregate body does not carry.
struct RelayReport {
  RelayMsg kind = RelayMsg::kRelayReport;  // the frame tag; not in the body
  uint32_t flood = 0;
  /// The responding prover's node id; for an aggregate, the elected head
  /// that built the payload.
  net::NodeId origin = 0;
  uint8_t hops = 0;        // relays traversed so far (origin sends 0)
  uint8_t inner_type = 0;  // attest::MsgType of `response` (kRelayReport)
  /// Worst store-and-forward queue occupancy along the path so far,
  /// scaled to 0..255 (occupancy / depth). The verifier damps its
  /// dispatch window when this saturates.
  uint8_t queue = 0;
  /// Route record: origin first, then every relay that forwarded the
  /// report. Reversed, this is the verifier's downlink path for a scoped
  /// retry.
  std::vector<net::NodeId> path;
  /// Serialized attest response body, or the AggregateFrame.
  Bytes response;

  bool aggregate() const { return kind == RelayMsg::kAggregateReport; }
  /// The body, without the frame tag.
  Bytes serialize() const;
  /// Parses a body of `kind`; nullopt for any other tag.
  static std::optional<RelayReport> deserialize(RelayMsg kind,
                                                ByteView data);
  /// The framed datagram: frame_relay(kind, serialize()).
  Bytes frame() const;
};

struct ScopedRequest {
  uint32_t flood = 0;      // fresh id from the transport's flood space
  uint8_t inner_type = 0;  // attest::MsgType of `request`
  /// Hops still ahead of the receiver, ending at the served device; an
  /// empty route means "you are the target". Each forwarder strips
  /// itself off the front.
  std::vector<net::NodeId> route;
  Bytes request;

  Bytes serialize() const;
  static std::optional<ScopedRequest> deserialize(ByteView data);
};

struct ScopedNak {
  uint32_t flood = 0;
  net::NodeId target = 0;  // device whose cached route broke

  Bytes serialize() const;
  static std::optional<ScopedNak> deserialize(ByteView data);
};

Bytes frame_relay(RelayMsg type, ByteView body);
std::optional<std::pair<RelayMsg, ByteView>> unframe_relay(ByteView data);

}  // namespace erasmus::overlay
