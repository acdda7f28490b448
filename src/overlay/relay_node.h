// Per-device agent of the multi-hop collection overlay.
//
// A RelayNode owns its device's network handler and plays both overlay
// roles:
//
//  * endpoint -- floods that target this node (or everyone) are served by
//    the co-located Prover (a real buffer read, no cryptography) and the
//    response enters the relay queue addressed up the flood's tree;
//  * relay    -- reports from deeper nodes are stored in a bounded
//    store-and-forward queue and forwarded one per `forward_spacing`
//    toward this node's parent for that flood. Overflow drops (and drop
//    accounting) model a constrained radio, not an infinite pipe. Both
//    RelayReport kinds -- raw reports and cluster aggregates -- take one
//    relay path; only raw reports can be absorbed by a head.
//
// Route state is per flood id: the parent is the neighbour the flood was
// first heard from, and every duplicate arrival is remembered as an
// alternate uplink. When a report is about to be forwarded and a link
// probe says the parent has moved out of range, the node repairs the
// route onto a still-connected alternate (counted in stats) -- the
// mobility-aware re-discovery that keeps a round alive when the topology
// churns mid-collection.
//
// Scoped retries (wire.h ScopedRequest) ride the same route table: a
// source-routed request records each sender as the parent for its flood
// id while it travels down, serves at the target, and the response
// report climbs back over those parents. A hop whose next link is down
// answers with a ScopedNak toward the verifier instead of forwarding
// blindly. Reports stamp the node's store-and-forward queue occupancy as
// they pass, so the verifier sees relay congestion end to end.
#pragma once

#include <array>
#include <map>
#include <vector>

#include "aggregate/combine.h"
#include "aggregate/election.h"
#include "attest/prover.h"
#include "energy/meter.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "overlay/wire.h"
#include "sim/event_queue.h"

namespace erasmus::overlay {

/// A cluster head flushes its aggregate early, before its window closes,
/// once the cluster holds this many members.
inline constexpr size_t kMaxClusterMembers = 256;

/// Hierarchical collection: this node's cluster-head behaviour. With
/// `enabled`, a node elected head for a flood (aggregate/election.h)
/// holds the child reports flowing through it for `window`, judges them
/// against its own latest digest, and uplinks ONE authenticated
/// AggregateFrame instead of each report individually. Late reports that
/// miss the window simply relay raw -- aggregation is an optimisation,
/// never a correctness gate.
struct AggregationConfig {
  bool enabled = false;
  aggregate::ElectionPolicy election;
  /// Hold-and-combine window, measured from election (the flood's first
  /// sight). Must sit well under the verifier's response timeout.
  sim::Duration window = sim::Duration::millis(200);
  /// Head CPU for the combine (hashing absorbed evidence + one MAC),
  /// charged at flush with the absorbed byte count. Runner-installed;
  /// nullptr = unmetered. May brown the head out: a dark head's
  /// aggregate never leaves (counted aggregates_dark_purged).
  std::function<void(uint64_t combined_bytes, sim::Time at)> combine_charge;
};

struct RelayNodeConfig {
  /// Store-and-forward buffer capacity (reports queued for the uplink).
  size_t queue_depth = 16;
  /// Radio serialization: one queued report leaves every this-often.
  sim::Duration forward_spacing = sim::Duration::millis(1);
  /// Route (uplink) state is kept for this many most-recent floods;
  /// older floods' parent entries are pruned (their late reports become
  /// orphans). Size it to the number of floods that can be in flight at
  /// once -- a round broadcast plus one targeted flood per retried
  /// session. NOTE: this bounds route state only; flood DEDUP uses a
  /// separate id watermark, so pruning can never re-trigger a re-flood
  /// (a pruned id mistaken for "first sight" would echo exponentially).
  size_t flood_memory = 64;
  /// Flight recorder for queue-drop / route-repair events (category
  /// kOverlay, actor = this node). Not owned; nullptr = no tracing.
  obs::TraceRecorder* trace = nullptr;
  /// Store-and-forward occupancy (0..1), sampled as each report enters
  /// the queue: the congestion signal the AIMD window damps on. One
  /// histogram is shared by every node of a swarm. Not owned; nullptr =
  /// not sampled.
  obs::Histogram* occupancy = nullptr;
  /// This node's battery meter (not owned; nullptr = unmetered). A dark
  /// node has browned out: frames it would have heard are dropped on
  /// arrival and its store-and-forward queue is purged -- radio bytes are
  /// charged by the network's energy tap, not here.
  const energy::DeviceMeter* meter = nullptr;
  /// Cluster-head aggregation (hierarchical collection).
  AggregationConfig aggregation;
  /// Adversarial compromise of THIS node (src/adversary). A compromised
  /// relay keeps serving its own requests -- staying a credible tree
  /// member is the attack's cover -- but turns on the traffic it relays
  /// for others.
  struct Compromise {
    /// Silently discard relayed reports/aggregates (counted
    /// dropped_adversarial, never conflated with queue overflow).
    bool drop_relayed = false;
    /// Scribble relayed frames instead of dropping: the mangled bytes
    /// still burn queue slots and spacing here, then land in the NEXT
    /// hop's (or the transport's) malformed_frames accounting.
    bool corrupt_relayed = false;
    /// Sybil flood: forged-origin reports injected per first-sight flood.
    uint32_t sybil_per_flood = 0;
    /// Forged origins start here. Set >= num_nodes so the transport can
    /// reject them by range (spoofed_rejected).
    net::NodeId sybil_origin_base = 0;
  } compromise;
};

class RelayNode {
 public:
  /// Local connectivity oracle ("can I still hear this neighbour?") used
  /// for route repair before forwarding. Physically this is link-layer
  /// beaconing; here it asks the same predicate the network applies at
  /// send time. Empty = no repair, forward blindly like the radio would.
  using LinkProbe = std::function<bool(net::NodeId self, net::NodeId peer)>;

  /// The node installs itself as `self`'s datagram handler; its floods
  /// are offered to every node registered on `network`.
  RelayNode(sim::EventQueue& queue, net::Network& network, net::NodeId self,
            attest::Prover& prover, RelayNodeConfig config = {});
  ~RelayNode();

  RelayNode(const RelayNode&) = delete;
  RelayNode& operator=(const RelayNode&) = delete;

  void set_link_probe(LinkProbe probe) { link_probe_ = std::move(probe); }

  struct Stats {
    uint64_t floods_seen = 0;       // flood frames heard (duplicates incl.)
    uint64_t floods_forwarded = 0;  // re-floods sent (first sight, ttl > 0)
    uint64_t requests_served = 0;   // requests answered by the local prover
    uint64_t reports_relayed = 0;   // reports forwarded toward a parent
    uint64_t reports_dropped = 0;   // store-and-forward queue overflow
    uint64_t reports_orphaned = 0;  // reports for floods we never saw/pruned
    uint64_t route_repairs = 0;     // parent swapped to an alternate uplink
    uint64_t scoped_forwarded = 0;  // scoped requests passed down-route
    uint64_t naks_sent = 0;         // scoped hops found their next link down
    uint64_t naks_forwarded = 0;    // NAKs passed up toward the verifier
    uint64_t malformed_frames = 0;  // frames that did not parse (cf.
                                    // NetworkTransport::malformed_frames)
    uint64_t dropped_dark = 0;      // frames/reports lost to a dead battery
    // Hierarchical collection (cluster-head role):
    uint64_t heads_elected = 0;      // floods this node served as head
    uint64_t reports_absorbed = 0;   // child reports combined, not relayed
    uint64_t aggregates_built = 0;   // aggregate frames MAC'd and uplinked
    uint64_t aggregates_relayed = 0; // upstream aggregates forwarded
    /// Aggregate state (held evidence or queued frames) lost to a dead
    /// battery. Kept apart from dropped_dark: these members re-enter
    /// collection through election-time recovery -- their sessions time
    /// out and the retry flood rebuilds the tree around the dark head.
    uint64_t aggregates_dark_purged = 0;
    // Adversarial relay behaviour (zero on honest nodes). Kept apart from
    // reports_dropped (queue overflow) and dropped_dark (dead battery):
    // attack losses must never be conflated with the overlay's own
    // congestion or energy accounting.
    uint64_t dropped_adversarial = 0;    // relayed frames discarded on purpose
    uint64_t corrupted_adversarial = 0;  // relayed frames scribbled
    uint64_t sybil_injected = 0;         // forged-origin reports originated
  };
  const Stats& stats() const { return stats_; }
  net::NodeId self() const { return self_; }

 private:
  /// Alternate-uplink memory per flood: enough for route repair in dense
  /// neighbourhoods without unbounded growth in them.
  static constexpr size_t kMaxAlternates = 4;
  struct FloodRoute {
    net::NodeId parent = 0;
    /// Duplicate-arrival uplinks, the first `alternate_count` slots.
    std::array<net::NodeId, kMaxAlternates> alternates{};
    uint8_t alternate_count = 0;
  };
  struct QueuedReport {
    uint32_t flood = 0;
    Bytes frame;
    bool relayed = false;    // someone else's report (vs served locally)
    bool aggregate = false;  // a kAggregateReport (dark-purge accounting)
  };

  void on_datagram(const net::Datagram& dgram);
  /// The relay path of both report kinds: route lookup, the compromised
  /// relay's drop or corrupt, head absorption (raw reports only), then
  /// the received frame patched one hop on and enqueued.
  void relay(const ReportView& report);
  /// kOverlay "adversarial_drop"/"adversarial_corrupt" instant.
  void trace_adversarial(const char* name, const ReportView& report);
  void handle_flood(const FloodView& flood, net::NodeId from);
  void handle_scoped(ScopedRequest request, net::NodeId from);
  /// Serves one inner attest request via the co-located prover
  /// (Prover::serve) and schedules the response report (shared by floods
  /// and scoped requests); an undecodable request is a malformed frame.
  void serve(uint32_t flood_id, uint8_t inner_type, ByteView request);
  /// Reports waiting in the store-and-forward queue.
  size_t queued() const { return queue_out_.size() - queue_head_; }
  /// This node's store-and-forward occupancy as a wire byte (0..255),
  /// as it will be once one more report is queued.
  uint8_t occupancy_byte() const;
  /// Stamps occupancy into the report (either kind) and queues it for
  /// store-and-forward; drops on overflow.
  void enqueue_report(RelayReport report, bool relayed);
  /// Shared store-and-forward admission: overflow accounting, occupancy
  /// sampling, queue push, drain arming. `origin` only labels the drop
  /// trace.
  void enqueue_frame(uint32_t flood, net::NodeId origin, Bytes frame,
                     bool relayed, bool aggregate);
  void drain_one();
  /// Takes the head role for this flood (if the prover can judge, i.e.
  /// has measured at least once) and arms the aggregation window.
  void elect_head(uint32_t flood_id, uint32_t depth);
  /// Builds, MACs and uplinks the held aggregate; purges it instead when
  /// the battery died (the members recover through re-election).
  void flush_aggregate(uint32_t flood_id);
  /// The route's current uplink, after any route repair.
  net::NodeId uplink(FloodRoute& route);
  void prune_routes();

  sim::EventQueue& queue_;
  net::Network& network_;
  net::NodeId self_;
  attest::Prover& prover_;
  RelayNodeConfig config_;
  LinkProbe link_probe_;

  /// First-sight dedup, decoupled from route pruning. Transport flood ids
  /// are monotone, so anything more than the window below the watermark
  /// is a duplicate by construction.
  bool first_sight(uint32_t flood);

  std::map<uint32_t, FloodRoute> routes_;  // flood id -> uplink state
  /// Ids seen, ascending; ids that fell out of the window may linger.
  std::vector<uint32_t> seen_floods_;
  uint32_t flood_watermark_ = 0;           // highest flood id seen
  /// Store-and-forward queue: the live reports are queue_out_[queue_head_,
  /// end). The slots before the head are reclaimed when a push would
  /// outgrow the buffer, so a relay reuses one buffer.
  std::vector<QueuedReport> queue_out_;
  size_t queue_head_ = 0;
  /// Held hold-and-combine state per flood this node heads. Entries live
  /// from election to flush (or dark purge); bounded like routes_.
  std::map<uint32_t, aggregate::Combiner> aggs_;
  bool draining_ = false;
  Stats stats_;
  sim::ScopedEvents events_;  // serve, drain and flush events
};

}  // namespace erasmus::overlay
