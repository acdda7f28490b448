// overlay::RelayTransport -- the attest::Transport over the collection
// overlay.
//
// This is the seam that lets the unified AttestationService (windows,
// timeouts, retries, round policies) drive tree-routed swarm collection
// unchanged: the service sees an ordinary Transport whose peers happen to
// be reachable only over whatever multi-hop path exists right now.
//
//  * broadcast(peers, ...) -- a dispatch batch becomes ONE CollectFlood
//    scoped to those peers (everyone forwards, only batch members serve),
//    or a {kEveryone} flood when the batch covers the swarm. The flood
//    builds its own parent tree as it propagates, and its report volume
//    is bounded by the service's dispatch window -- the knob the AIMD
//    controller turns.
//  * send(peer, ...)       -- a retry or per-device (OD) request. With
//    scoped retries on and a fresh cached route -- learned from the path
//    record of ANY report that crossed the peer, its own or one it
//    relayed -- this is a source-routed unicast down that parent chain;
//    otherwise a targeted flood, whose fresh id rebuilds the tree from
//    the CURRENT topology -- the §6 mobility argument in transport form.
//    A ScopedNak, a stale or an already-burned route all fall back to
//    the flood path.
//  * receive               -- both RelayReport kinds share one intake:
//    the origin-range guard, then the piggybacked relay-queue occupancy
//    feeds take_congestion() (so the service can damp its window when
//    relays saturate), the path record refreshes the route cache, and
//    reports of unknown floods count as stale. Raw reports are then
//    deduplicated per flood (dense topologies deliver the same report
//    over several paths), feed the hop histogram and go to the service
//    keyed by the origin node, exactly as a direct response would.
//    Aggregates are deduplicated per head and go to the aggregate
//    receiver.
//
// Malformed frames are counted and dropped here, mirroring
// NetworkTransport::malformed_frames(): the service only ever sees typed
// messages.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "aggregate/frame.h"
#include "attest/transport.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "overlay/wire.h"

namespace erasmus::overlay {

/// How long a recorded path stays trustworthy for a scoped retry: at
/// vehicle speeds a multi-hop path decays in tens of seconds.
inline constexpr sim::Duration kRouteTtl = sim::Duration::seconds(30);

struct RelayTransportConfig {
  /// Flood TTL: a flood reaches nodes up to ttl+1 hops out.
  uint8_t ttl = 8;
  /// Must match the relay nodes' forward_spacing; enters the latency
  /// estimate the service sizes timeouts from.
  sim::Duration forward_spacing = sim::Duration::millis(1);
  /// Per-flood dedup/delivery state is kept for this many most-recent
  /// floods. Size it to the floods that can await responses at once: one
  /// round broadcast plus one targeted flood per in-flight retry (a
  /// pruned window turns that flood's responses into stale reports and
  /// forces another retry).
  size_t flood_memory = 64;
  /// Retry a device over its last report's recorded path (a source-routed
  /// unicast) instead of re-flooding the swarm, while that route is
  /// fresh (kRouteTtl). Off: every retry is a full targeted flood (the
  /// pre-scoped behaviour).
  bool scoped_retries = false;
  /// Flight recorder for flood/scoped/report lifecycle events (category
  /// kOverlay). Not owned; nullptr = no tracing.
  obs::TraceRecorder* trace = nullptr;
  /// Hierarchical collection: mark multi-member round/retry-wave floods
  /// aggregate-eligible (kFloodAggregate), so elected heads absorb their
  /// reports. Single-target sends -- retries and demand fetches -- are
  /// never eligible: their whole point is raw per-device evidence.
  bool aggregate = false;
};

class RelayTransport : public attest::Transport {
 public:
  /// Attaches to `self` (already registered on `network`); node ids
  /// [0, num_nodes) exist, relay nodes and this endpoint included. The
  /// count sizes the route table and bounds accepted report origins.
  RelayTransport(net::Network& network, net::NodeId self, size_t num_nodes,
                 RelayTransportConfig config = {});
  ~RelayTransport() override;

  void send(net::NodeId peer, attest::MsgType type, ByteView body) override;
  void broadcast(const std::vector<net::NodeId>& peers, attest::MsgType type,
                 ByteView body) override;
  void set_receiver(Receiver receiver) override;
  /// Delivery channel for cluster aggregates: called once per accepted
  /// (deduplicated, well-formed) AggregateFrame with the relay count it
  /// crossed. Authentication is the caller's job -- the transport has no
  /// key directory.
  using AggregateReceiver =
      std::function<void(const aggregate::AggregateFrame& frame,
                         uint8_t hops)>;
  void set_aggregate_receiver(AggregateReceiver receiver) {
    aggregate_receiver_ = std::move(receiver);
  }
  /// Worst-case one-way estimate: per-hop network latency plus relay
  /// serialization, times the flood depth bound.
  sim::Duration latency() const override;
  /// Worst relay-queue occupancy (0..1) reported by any report since the
  /// last call; drains on read.
  double take_congestion() override;
  /// One broadcast = one field-wide flood regardless of batch size: make
  /// the service coalesce dispatch instead of flooding per free slot.
  bool coalesced_dispatch() const override { return true; }
  /// Marks the next broadcast as a retry wave so its scoped/fallback
  /// split is accounted in the retry-economy stats.
  void hint_retry_wave() override { next_broadcast_is_retry_ = true; }

  struct Stats {
    uint64_t floods_sent = 0;       // batch/round broadcasts
    uint64_t targeted_floods = 0;   // re-floods carrying retries (per-peer
                                    // sends and coalesced retry waves)
    uint64_t scoped_sent = 0;       // retries unicast down a cached route
    uint64_t scoped_fallbacks = 0;  // retried devices with no usable route
    uint64_t naks_received = 0;     // broken-route notices (route evicted)
    uint64_t reports_received = 0;
    uint64_t duplicate_reports = 0;  // same (flood, origin) via another path
    uint64_t stale_reports = 0;      // flood id outside the dedup window
    uint64_t malformed_frames = 0;
    /// Reports (either kind) whose claimed origin is not a node that
    /// exists on this network (Sybil / spoofed-origin injection).
    /// Rejected before any route-cache or congestion state is touched,
    /// and counted apart from malformed_frames: the frame parsed fine --
    /// its identity lied.
    uint64_t spoofed_rejected = 0;
    // Hierarchical collection:
    uint64_t aggregates_received = 0;   // accepted aggregate frames
    uint64_t duplicate_aggregates = 0;  // same (flood, head) again
    uint64_t aggregate_members = 0;     // members across accepted frames
    uint64_t aggregate_wire_bytes = 0;  // accepted frame payload bytes
    uint64_t aggregate_raw_bytes = 0;   // raw evidence those frames absorbed
  };
  const Stats& stats() const { return stats_; }

  /// Reports received by relay count: [0] arrived directly, [h] crossed h
  /// relays. Grown on demand.
  const std::vector<uint64_t>& hop_histogram() const { return hops_; }
  /// Relay counts of every accepted report AND aggregate, bucketed.
  const obs::Histogram& hop_count() const { return hop_count_; }

  /// True when a scoped retry for `peer` would take the unicast path
  /// right now (fresh, unburned route cached). Exposed for tests.
  bool has_fresh_route(net::NodeId peer) const;

  net::NodeId self() const { return self_; }

 private:
  struct CachedRoute {
    std::vector<net::NodeId> route;  // verifier-side first, target last
    sim::Time learned_at;
    /// One scoped attempt per learning: a second retry without a fresh
    /// report in between means the unicast failed silently -- re-flood.
    bool used = false;
    /// Slot occupancy: the route table is a flat per-node array, so an
    /// entry exists for every node; only valid ones were ever learned.
    bool valid = false;
  };

  void on_datagram(const net::Datagram& dgram);
  /// kOverlay category instant (no-op when tracing is off/filtered).
  void trace_overlay(const char* name, obs::TraceArgs args);
  /// Opens the per-flood dedup window for a fresh id, evicting the
  /// oldest beyond flood_memory (shared by floods and scoped requests).
  void register_flood(uint32_t flood);
  void launch_flood(std::vector<net::NodeId> targets, attest::MsgType type,
                    ByteView body, bool aggregate_eligible = false);
  /// The aggregate tail of the intake: per-head dedup, payload parse,
  /// aggregate stats, delivery to the aggregate receiver.
  void deliver_aggregate(const RelayReport& env);
  void launch_scoped(CachedRoute& route, attest::MsgType type, ByteView body);

  net::Network& network_;
  net::NodeId self_;
  size_t num_nodes_;
  RelayTransportConfig config_;
  Receiver receiver_;
  AggregateReceiver aggregate_receiver_;

  uint32_t next_flood_ = 1;
  std::map<uint32_t, std::set<net::NodeId>> delivered_;  // flood -> origins
  /// Aggregate dedup, keyed by head but kept apart from delivered_: a
  /// head both BUILDS an aggregate and sends its own raw report up the
  /// tree, so one key space would let whichever arrives first shadow the
  /// other. Staleness still follows delivered_'s flood window.
  std::map<uint32_t, std::set<net::NodeId>> agg_delivered_;
  /// Flat per-node route table (indexed by origin id). Node ids are dense
  /// [0, num_nodes), so a vector beats a hash map here: route refreshes
  /// touch every prefix of every report path, and the flat layout keeps
  /// those stores on contiguous slots with no rehash churn.
  std::vector<CachedRoute> routes_;
  std::vector<uint64_t> hops_;
  // Inclusive upper bounds on integer relay counts; a report that crossed
  // more than 12 relays lands in the overflow bucket.
  obs::Histogram hop_count_{{0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0}};
  double pending_congestion_ = 0.0;
  bool next_broadcast_is_retry_ = false;
  Stats stats_;
};

}  // namespace erasmus::overlay
