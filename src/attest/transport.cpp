#include "attest/transport.h"

#include <algorithm>
#include <stdexcept>

#include "attest/prover.h"

namespace erasmus::attest {

NetworkTransport::NetworkTransport(net::Network& network, net::NodeId self)
    : network_(network), self_(self) {
  network_.set_handler(self_, [this](const net::Datagram& d) {
    const auto framed = unframe(d.payload);
    if (!framed) {
      // Not even a well-formed frame: drop here so the service only ever
      // sees typed messages.
      ++malformed_frames_;
      return;
    }
    if (receiver_) receiver_(d.src, framed->first, framed->second);
  });
}

NetworkTransport::~NetworkTransport() {
  network_.set_handler(self_, {});
}

void NetworkTransport::send(net::NodeId peer, MsgType type, ByteView body) {
  network_.send(self_, peer, frame(type, body));
}

void NetworkTransport::broadcast(const std::vector<net::NodeId>& peers,
                                 MsgType type, ByteView body) {
  network_.broadcast(self_, peers, frame(type, body));
}

void NetworkTransport::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
}

void DirectTransport::attach(net::NodeId node, Prover& prover) {
  provers_[node] = &prover;
}

void DirectTransport::enable_batch_serve(common::ParallelExecutor& executor,
                                         size_t domains, net::NodeId sink) {
  if (provers_.empty()) {
    throw std::logic_error(
        "DirectTransport: enable_batch_serve before any attach");
  }
  net::NodeId lo = provers_.begin()->first;
  net::NodeId hi = lo;
  for (const auto& [node, prover] : provers_) {
    lo = std::min(lo, node);
    hi = std::max(hi, node);
  }
  executor_ = &executor;
  domain_base_ = lo;
  domain_span_ = static_cast<size_t>(hi - lo) + 1;
  // The domain count is a property of the FLEET, never of the thread
  // count: the local/cross split (and everything derived from it) must be
  // byte-identical at any thread count, so the partition cannot follow
  // the executor's width.
  domains_ = std::min(domains, domain_span_);
  if (domains_ == 0) domains_ = 1;
  sink_domain_ = domain_of(sink);
}

size_t DirectTransport::domain_of(net::NodeId node) const {
  if (node < domain_base_) return 0;
  const size_t offset = static_cast<size_t>(node - domain_base_);
  if (offset >= domain_span_) return domains_ - 1;
  // Contiguous blocks over the attached id range.
  return offset * domains_ / domain_span_;
}

void DirectTransport::send(net::NodeId peer, MsgType type, ByteView body) {
  serve({&peer, 1}, type, body);
}

void DirectTransport::broadcast(const std::vector<net::NodeId>& peers,
                                MsgType type, ByteView body) {
  serve(peers, type, body);
}

void DirectTransport::serve(std::span<const net::NodeId> peers, MsgType type,
                            ByteView body) {
  // Each attached peer is served into its batch slot; an unattached one's
  // slot stays empty, a silent drop.
  std::vector<Prover::Reply> slots(peers.size());
  const auto serve_slot = [&](size_t i) {
    const auto it = provers_.find(peers[i]);
    if (it != provers_.end()) slots[i] = it->second->serve(type, body);
  };
  const bool batched = executor_ != nullptr && peers.size() > 1;
  if (batched) {
    // Partition the slot indices by radio domain, preserving batch order
    // within each domain: a peer listed twice is served twice, in order,
    // by the same worker. A prover touches only its own state, so the only
    // shared structure is the read-only prover table.
    std::vector<std::vector<size_t>> by_domain(domains_);
    for (size_t i = 0; i < peers.size(); ++i) {
      by_domain[domain_of(peers[i])].push_back(i);
    }
    std::vector<size_t> live;
    for (size_t d = 0; d < domains_; ++d) {
      if (!by_domain[d].empty()) live.push_back(d);
    }
    executor_->run(live.size(), [&](size_t j) {
      for (const size_t i : by_domain[live[j]]) serve_slot(i);
    });
  } else {
    for (size_t i = 0; i < peers.size(); ++i) serve_slot(i);
  }
  // Delivery in batch order, whichever worker served a slot.
  last_processing_ = sim::Duration(0);
  bool delivered = false;
  for (size_t i = 0; i < peers.size(); ++i) {
    const Prover::Reply& reply = slots[i];
    const bool replied = reply.outcome == Prover::Outcome::kReplied;
    last_processing_ = replied ? reply.processing : sim::Duration(0);
    if (!replied) continue;
    delivered = true;
    if (batched) {
      ++(domain_of(peers[i]) == sink_domain_ ? batch_counters_.frames_local
                                             : batch_counters_.frames_cross);
    }
    if (receiver_) receiver_(peers[i], reply.type, reply.body);
  }
  if (batched && delivered) ++batch_counters_.drains;
}

void DirectTransport::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
}

}  // namespace erasmus::attest
