// Simulated datagram network.
//
// Stands in for the paper's transports (UDP over Ethernet on the i.MX6;
// serial/radio links on MSP430-class devices). Delivery is scheduled on the
// shared EventQueue after a configurable latency; datagrams can be lost with
// a configurable probability, and a link filter lets the swarm layer impose
// a (time-varying) topology: a datagram is only delivered if the two nodes
// are connected at SEND time.
//
// One transmission (a send() or a broadcast) is one delivery event, however
// many destinations it reaches. Destinations are admitted at send time --
// stats, link filter, loss draw and the energy tap's rx charge, one
// destination after another -- and the transmission's payload and admitted
// list go into an in-flight slot the network reuses. The event, at now +
// latency, names only that slot; it hands the payload to every admitted
// destination in admit order, looking each handler up as it goes (a
// handler replaced by an earlier receiver of the same transmission is the
// one that runs), and frees the slot after the last one.
// Anything a handler schedules at the delivery instant runs after every
// receiver of that transmission, exactly as when each destination had an
// event of its own: those events held consecutive sequence numbers.
//
// The transport is deliberately insecure -- ERASMUS measurements are
// authenticated by MAC_K and need neither encryption nor a trusted channel
// (paper §3.2).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace erasmus::net {

using NodeId = uint32_t;

struct Datagram {
  NodeId src = 0;
  NodeId dst = 0;
  /// The transmission's payload, held in its in-flight slot: valid only
  /// while the handler runs. A handler that keeps bytes copies them.
  ByteView payload;
};

class Network {
 public:
  using Handler = std::function<void(const Datagram&)>;
  /// Returns true when src->dst is currently connected.
  using LinkFilter = std::function<bool(NodeId, NodeId)>;
  /// Optional companion of a link filter, asked once per broadcast_all():
  /// either fills `out` with an ascending superset of the nodes the filter
  /// can accept from `src` at this instant and returns true, or returns
  /// false to decline (every offered node then goes to the filter).
  using RangeQuery = std::function<bool(NodeId src, std::vector<NodeId>& out)>;

  /// Throws std::invalid_argument unless 0 <= loss_probability <= 1.
  Network(sim::EventQueue& queue, sim::Duration latency,
          double loss_probability = 0.0, uint64_t seed = 1);

  /// Registers a node; the handler runs at delivery time.
  NodeId add_node(Handler handler);

  /// Replaces a node's handler (e.g. when a device reboots).
  void set_handler(NodeId node, Handler handler);

  /// Imposes a connectivity predicate evaluated at send time; nullptr means
  /// full connectivity. `query` (see RangeQuery) only narrows which nodes
  /// broadcast_all() asks the filter about; it never replaces the filter.
  void set_link_filter(LinkFilter filter, RangeQuery query = nullptr) {
    filter_ = std::move(filter);
    range_query_ = std::move(query);
  }

  /// Radio-energy tap, invoked at send time: once with tx=true per
  /// physical transmission (a broadcast keys the radio ONCE however many
  /// destinations it reaches), and once with tx=false per destination the
  /// datagram is actually delivered to. Kept as a generic callback so the
  /// network stays ignorant of who meters what; the energy layer installs
  /// one that charges DeviceMeters. nullptr = no metering (zero cost).
  using EnergyTap = std::function<void(NodeId node, size_t bytes, bool tx)>;
  void set_energy_tap(EnergyTap tap) { energy_tap_ = std::move(tap); }

  /// Queues a datagram for delivery after the network latency. Silently
  /// drops it when the nodes are disconnected or the loss draw fires
  /// (datagram networks do not report loss to the sender).
  void send(NodeId src, NodeId dst, Bytes payload);

  /// Sends one payload to many destinations: one independent loss/link
  /// draw per destination, in `dsts` order, and one delivery event for
  /// all of them -- byte-identical to the equivalent send() loop. Used
  /// for batched collection-round dispatch. Every id is validated before
  /// anything is charged or scheduled: an unknown one throws
  /// std::out_of_range with no side effect.
  void broadcast(NodeId src, const std::vector<NodeId>& dsts,
                 ByteView payload);

  /// A radio transmission heard by whoever is in range: offers the payload
  /// to every registered node except `src` and `except`, in ascending id
  /// -- byte-identical to broadcast() over that list. With a range query
  /// that answers, only its candidates are link-checked; every other
  /// offered node is accounted exactly as a filter refusal (sent,
  /// bytes_sent, dropped_disconnected, node_stats) without being visited,
  /// which makes a flood O(neighbours) instead of O(nodes).
  void broadcast_all(NodeId src, NodeId except, ByteView payload);

  /// Replaces the per-datagram loss probability mid-run (scheduled
  /// loss-burst fault injection, src/adversary). Takes effect at the next
  /// admit draw; the RNG stream is untouched, so a burst schedule is as
  /// deterministic as a fixed loss rate.
  /// Throws std::invalid_argument unless 0 <= p <= 1.
  void set_loss_probability(double p);
  double loss_probability() const { return loss_probability_; }

  sim::Duration latency() const { return latency_; }
  /// The owning queue's current instant (route-freshness decisions of
  /// higher layers key off send-time, which is this clock).
  sim::Time now() const { return queue_.now(); }

  struct Stats {
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped_loss = 0;
    uint64_t dropped_disconnected = 0;
    /// Payload bytes offered to the medium (counted per destination
    /// attempt, delivered or not -- the radio transmits either way).
    uint64_t bytes_sent = 0;
    /// PHYSICAL radio bytes: tx counted once per transmission like the
    /// energy tap (a broadcast keys the radio once, however many
    /// destinations it reaches), rx per destination actually delivered
    /// to. The honest air-interface load -- bytes_sent scales with the
    /// destination count and would overstate a flood's radio cost.
    /// (node_stats() keeps these zero: per-destination attribution of a
    /// shared transmission is exactly the double count avoided here.)
    uint64_t phys_tx_bytes = 0;
    uint64_t phys_rx_bytes = 0;
    /// Machine-independent work counters (node_stats() keeps them zero):
    /// link-filter evaluations, and transmissions -- send() calls plus
    /// broadcasts offered to at least one node. Their ratio is the cost
    /// of a transmission in link checks.
    uint64_t link_checks = 0;
    uint64_t transmissions = 0;
  };
  const Stats& stats() const { return stats_; }
  /// Delivery stats for traffic TO one node (what did device d actually
  /// receive / lose?) -- the per-device observability fleet debugging
  /// needs.
  Stats node_stats(NodeId dst) const;

 private:
  /// A transmission between its send and its delivery event. Its buffers
  /// keep their capacity for the slot's next transmission, so the steady
  /// state allocates nothing.
  struct InFlight {
    NodeId src = 0;
    Bytes payload;
    std::vector<NodeId> dsts;
  };
  /// Destinations a range query spared the filter, as (count, bytes).
  struct Unasked {
    uint64_t count = 0;
    uint64_t bytes = 0;
  };

  /// Stats + link-filter + loss draw for one (src, dst), and the receiver's
  /// rx accounting when it passes; true = deliver.
  bool admit(NodeId src, NodeId dst, size_t payload_bytes);
  /// admit(), recording an admitted destination in admitted_.
  void offer(NodeId src, NodeId dst, size_t payload_bytes);
  /// The sender's side of one physical transmission.
  void key_radio(NodeId src, size_t payload_bytes);
  /// Takes `node` out of the current answered broadcast's unasked set.
  void exempt(NodeId node, size_t payload_bytes);
  /// Moves admitted_ into a free in-flight slot, schedules the
  /// transmission's one delivery event and returns the slot, whose
  /// payload the caller fills; nullptr, and nothing scheduled, when none
  /// was admitted.
  InFlight* dispatch_admitted(NodeId src);
  /// dispatch_admitted() with a copy of `payload`.
  void deliver_admitted(NodeId src, ByteView payload);
  /// The delivery event of in-flight slot `slot`.
  void deliver(uint32_t slot);
  /// Delivery to one destination, inside a delivery event.
  void hand_over(NodeId src, NodeId dst, ByteView payload);

  sim::EventQueue& queue_;
  sim::Duration latency_;
  double loss_probability_;
  sim::Rng rng_;
  LinkFilter filter_;
  RangeQuery range_query_;
  EnergyTap energy_tap_;
  std::vector<Handler> handlers_;
  Stats stats_;
  std::vector<Stats> node_stats_;  // indexed by destination
  /// Per-destination refusals the range query accounted in bulk, derived
  /// on read: every node counts one per answered broadcast, minus those
  /// it was exempt from (sender, `except`, candidate, or not registered
  /// yet).
  Unasked unasked_;
  std::vector<Unasked> exempt_;  // indexed by node
  std::vector<NodeId> candidates_;  // range query reuse
  std::vector<NodeId> admitted_;    // the current broadcast's, in order
  /// A deque never moves its elements, so a handler that transmits during
  /// a delivery cannot move the slot being delivered; and that slot is
  /// freed only after its last receiver, so no transmission reuses it.
  std::deque<InFlight> in_flight_;
  std::vector<uint32_t> free_in_flight_;
};

}  // namespace erasmus::net
