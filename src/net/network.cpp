#include "net/network.h"

#include <algorithm>
#include <stdexcept>

#include "common/strings.h"

namespace erasmus::net {

Network::Network(sim::EventQueue& queue, sim::Duration latency,
                 double loss_probability, uint64_t seed)
    : queue_(queue), latency_(latency), rng_(seed) {
  set_loss_probability(loss_probability);
}

void Network::set_loss_probability(double p) {
  require_probability("Network: loss probability", p);
  loss_probability_ = p;
}

NodeId Network::add_node(Handler handler) {
  handlers_.push_back(std::move(handler));
  node_stats_.emplace_back();
  exempt_.push_back(unasked_);  // earlier broadcasts never offered to it
  return static_cast<NodeId>(handlers_.size() - 1);
}

void Network::set_handler(NodeId node, Handler handler) {
  if (node >= handlers_.size()) {
    throw std::out_of_range("Network: unknown node");
  }
  handlers_[node] = std::move(handler);
}

bool Network::admit(NodeId src, NodeId dst, size_t payload_bytes) {
  ++stats_.sent;
  stats_.bytes_sent += payload_bytes;
  ++node_stats_[dst].sent;
  node_stats_[dst].bytes_sent += payload_bytes;
  if (filter_) {
    ++stats_.link_checks;
    if (!filter_(src, dst)) {
      ++stats_.dropped_disconnected;
      ++node_stats_[dst].dropped_disconnected;
      return false;
    }
  }
  if (loss_probability_ > 0.0 && rng_.chance(loss_probability_)) {
    ++stats_.dropped_loss;
    ++node_stats_[dst].dropped_loss;
    return false;
  }
  stats_.phys_rx_bytes += payload_bytes;
  if (energy_tap_) energy_tap_(dst, payload_bytes, /*tx=*/false);
  return true;
}

void Network::offer(NodeId src, NodeId dst, size_t payload_bytes) {
  if (admit(src, dst, payload_bytes)) admitted_.push_back(dst);
}

void Network::hand_over(NodeId src, NodeId dst, ByteView payload) {
  ++stats_.delivered;
  ++node_stats_[dst].delivered;
  if (handlers_[dst]) handlers_[dst](Datagram{src, dst, payload});
}

void Network::deliver_admitted(NodeId src, ByteView payload) {
  if (InFlight* t = dispatch_admitted(src)) {
    t->payload.assign(payload.begin(), payload.end());
  }
}

Network::InFlight* Network::dispatch_admitted(NodeId src) {
  if (admitted_.empty()) return nullptr;
  uint32_t slot;
  if (free_in_flight_.empty()) {
    slot = static_cast<uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  InFlight& t = in_flight_[slot];
  t.src = src;
  t.dsts.assign(admitted_.begin(), admitted_.end());
  admitted_.clear();
  // (this, slot) fits std::function's inline buffer: no allocation.
  queue_.schedule_after(latency_, [this, slot] { deliver(slot); });
  return &t;
}

void Network::deliver(uint32_t slot) {
  const InFlight& t = in_flight_[slot];
  for (const NodeId dst : t.dsts) hand_over(t.src, dst, t.payload);
  free_in_flight_.push_back(slot);
}

void Network::key_radio(NodeId src, size_t payload_bytes) {
  // One physical transmission: the sender's radio is charged once, not
  // per destination (Stats::bytes_sent stays per-attempt -- it counts
  // offered load, the tap counts joules).
  ++stats_.transmissions;
  stats_.phys_tx_bytes += payload_bytes;
  if (energy_tap_) energy_tap_(src, payload_bytes, /*tx=*/true);
}

void Network::send(NodeId src, NodeId dst, Bytes payload) {
  if (src >= handlers_.size() || dst >= handlers_.size()) {
    throw std::out_of_range("Network: unknown endpoint");
  }
  key_radio(src, payload.size());
  offer(src, dst, payload.size());
  // The slot takes the caller's buffer instead of copying it.
  if (InFlight* t = dispatch_admitted(src)) t->payload.swap(payload);
}

void Network::broadcast(NodeId src, const std::vector<NodeId>& dsts,
                        ByteView payload) {
  const size_t n = handlers_.size();
  if (src >= n || std::any_of(dsts.begin(), dsts.end(),
                              [n](NodeId dst) { return dst >= n; })) {
    throw std::out_of_range("Network: unknown endpoint");
  }
  if (dsts.empty()) return;
  key_radio(src, payload.size());
  // Same per-destination draws, in the same order, as the equivalent
  // send() loop.
  for (const NodeId dst : dsts) offer(src, dst, payload.size());
  deliver_admitted(src, payload);
}

void Network::exempt(NodeId node, size_t payload_bytes) {
  ++exempt_[node].count;
  exempt_[node].bytes += payload_bytes;
}

void Network::broadcast_all(NodeId src, NodeId except, ByteView payload) {
  const size_t n = handlers_.size();
  if (src >= n) throw std::out_of_range("Network: unknown endpoint");
  const bool excepted = except != src && except < n;
  const size_t offered = n - 1 - (excepted ? 1 : 0);
  if (offered == 0) return;
  key_radio(src, payload.size());
  // Asked after the sender's tap: whatever the charge changed (a sender
  // that just browned out) is what the filter would see too.
  if (!filter_ || !range_query_ || !range_query_(src, candidates_)) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst != src && dst != except) offer(src, dst, payload.size());
    }
    deliver_admitted(src, payload);
    return;
  }
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i] >= n ||
        (i > 0 && candidates_[i] <= candidates_[i - 1])) {
      throw std::logic_error(
          "Network: range query answered unknown or unordered nodes");
    }
  }
  // Every offered node the query left out is refused without asking the
  // filter: account it in bulk (node_stats() derives the per-node share),
  // then visit the candidates in ascending id like the full scan does.
  ++unasked_.count;
  unasked_.bytes += payload.size();
  exempt(src, payload.size());
  if (excepted) exempt(except, payload.size());
  size_t asked = 0;
  for (const NodeId dst : candidates_) {
    if (dst == src || dst == except) continue;
    exempt(dst, payload.size());
    ++asked;
    offer(src, dst, payload.size());
  }
  const uint64_t refused = offered - asked;
  stats_.sent += refused;
  stats_.bytes_sent += refused * payload.size();
  stats_.dropped_disconnected += refused;
  deliver_admitted(src, payload);
}

Network::Stats Network::node_stats(NodeId dst) const {
  if (dst >= node_stats_.size()) {
    throw std::out_of_range("Network: unknown node");
  }
  Stats s = node_stats_[dst];
  const uint64_t refused = unasked_.count - exempt_[dst].count;
  s.sent += refused;
  s.bytes_sent += unasked_.bytes - exempt_[dst].bytes;
  s.dropped_disconnected += refused;
  return s;
}

}  // namespace erasmus::net
