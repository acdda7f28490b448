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
//
// Receivers read frames where they land. FloodView and ReportView parse a
// received CollectFlood or RelayReport body in place: the fixed fields by
// value, the target list, path and body as views into the datagram. Like
// net::Datagram::payload, a view lives as long as its handler call; a
// handler that keeps bytes copies them. Relays never re-encode what they
// pass on: a forwarded flood is the received frame with `ttl` and `depth`
// patched, and a relayed report is the received frame with the relay's id
// appended to the path and `hops`, `queue` and the path count patched. The
// encoding is canonical (every accepted frame re-serializes to exactly its
// bytes), so a patched frame is byte-equal to decoding, editing and
// re-serializing it.
#pragma once

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

  Bytes serialize() const;
  /// An owned copy of FloodView::parse(data).
  static std::optional<CollectFlood> deserialize(ByteView data);
};

/// A node-id list read in place: the little-endian u32 entries of a
/// frame's list, without its count prefix.
class NodeList {
 public:
  NodeList() = default;
  explicit NodeList(ByteView entries) : entries_(entries) {}

  size_t size() const { return entries_.size() / 4; }
  bool empty() const { return entries_.empty(); }
  net::NodeId operator[](size_t i) const {
    const uint8_t* p = entries_.data() + 4 * i;
    return static_cast<net::NodeId>(p[0]) |
           static_cast<net::NodeId>(p[1]) << 8 |
           static_cast<net::NodeId>(p[2]) << 16 |
           static_cast<net::NodeId>(p[3]) << 24;
  }
  std::vector<net::NodeId> to_vector() const;

 private:
  ByteView entries_;
};

/// A received CollectFlood body read in place (see the header note): valid
/// as long as the bytes it was parsed from.
class FloodView {
 public:
  uint32_t flood = 0;
  uint8_t ttl = 0;
  uint8_t depth = 0;
  uint8_t flags = 0;
  uint8_t inner_type = 0;
  NodeList targets;
  ByteView request;

  /// Whether `node` answers: the targets hold it or kEveryone.
  bool serves(net::NodeId node) const;
  /// The flood re-broadcast one hop further: its frame with `ttl` and
  /// `depth` replaced by `next_ttl` and `next_depth`.
  Bytes forward_frame(uint8_t next_ttl, uint8_t next_depth) const;

  /// Accepts exactly one whole CollectFlood body: a list count the
  /// remaining input cannot cover, a short read or a trailing byte is
  /// nullopt.
  static std::optional<FloodView> parse(ByteView body);

 private:
  ByteView body_;
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
  /// An owned copy of ReportView::parse(kind, data).
  static std::optional<RelayReport> deserialize(RelayMsg kind,
                                                ByteView data);
  /// The framed datagram: frame_relay(kind, serialize()).
  Bytes frame() const;
};

/// A received RelayReport body of either kind read in place (see the
/// header note): valid as long as the bytes it was parsed from.
class ReportView {
 public:
  RelayMsg kind = RelayMsg::kRelayReport;
  uint32_t flood = 0;
  net::NodeId origin = 0;
  uint8_t hops = 0;
  uint8_t inner_type = 0;  // 0 for an aggregate, whose body has none
  uint8_t queue = 0;
  NodeList path;
  ByteView response;

  bool aggregate() const { return kind == RelayMsg::kAggregateReport; }
  /// The report relayed one hop further: its frame with `self` appended
  /// to the path, the hop count bumped (wrapping, as a uint8_t does) and
  /// the queue byte replaced by `next_queue`.
  Bytes relay_frame(net::NodeId self, uint8_t next_queue) const;

  /// Accepts exactly one whole body of `kind`, like FloodView::parse;
  /// nullopt for any tag but the two report kinds.
  static std::optional<ReportView> parse(RelayMsg kind, ByteView body);

 private:
  ByteView body_;
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
