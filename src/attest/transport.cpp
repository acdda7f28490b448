#include "attest/transport.h"

#include <algorithm>
#include <stdexcept>

#include "attest/prover.h"

namespace erasmus::attest {

void Transport::broadcast(const std::vector<net::NodeId>& peers, MsgType type,
                          ByteView body) {
  for (const net::NodeId peer : peers) send(peer, type, body);
}

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

void DirectTransport::serve_collect(net::NodeId peer,
                                    const CollectRequest& req) {
  last_processing_ = sim::Duration(0);
  const auto it = provers_.find(peer);
  if (it == provers_.end()) return;
  const auto res = it->second->handle_collect(req);
  last_processing_ = res.processing;
  if (receiver_) {
    receiver_(peer, MsgType::kCollectResponse, res.response.serialize());
  }
}

void DirectTransport::serve_od(net::NodeId peer, const OdRequest& req) {
  last_processing_ = sim::Duration(0);
  const auto it = provers_.find(peer);
  if (it == provers_.end()) return;
  const auto res = it->second->handle_od(req);
  last_processing_ = res.processing;
  if (res.response && receiver_) {
    receiver_(peer, MsgType::kOdResponse, res.response->serialize());
  }
}

void DirectTransport::send(net::NodeId peer, MsgType type, ByteView body) {
  last_processing_ = sim::Duration(0);
  if (type == MsgType::kCollectRequest) {
    const auto req = CollectRequest::deserialize(body);
    if (req) serve_collect(peer, *req);
    return;
  }
  if (type == MsgType::kOdRequest) {
    const auto req = OdRequest::deserialize(body);
    if (req) serve_od(peer, *req);
    return;
  }
  // Provers only serve requests; anything else is silently dropped.
}

void DirectTransport::broadcast(const std::vector<net::NodeId>& peers,
                                MsgType type, ByteView body) {
  // A round's batched dispatch carries one shared body (uniform k), so
  // decode it once and run a single dispatch loop instead of re-parsing
  // per peer -- observable behaviour stays identical to the send() loop.
  last_processing_ = sim::Duration(0);
  if (type == MsgType::kCollectRequest) {
    const auto req = CollectRequest::deserialize(body);
    if (!req) return;
    if (executor_ != nullptr && peers.size() > 1) {
      serve_collect_batch(peers, *req);
      return;
    }
    for (const net::NodeId peer : peers) serve_collect(peer, *req);
    return;
  }
  if (type == MsgType::kOdRequest) {
    const auto req = OdRequest::deserialize(body);
    if (!req) return;
    for (const net::NodeId peer : peers) serve_od(peer, *req);
    return;
  }
}

void DirectTransport::serve_collect_batch(
    const std::vector<net::NodeId>& peers, const CollectRequest& req) {
  // Partition the batch's slot indices by radio domain, preserving batch
  // order within each domain: a peer listed twice is served twice, in
  // order, by the same worker -- as the send() loop would.
  std::vector<std::vector<size_t>> by_domain(domains_);
  for (size_t i = 0; i < peers.size(); ++i) {
    by_domain[domain_of(peers[i])].push_back(i);
  }
  std::vector<size_t> live;
  live.reserve(domains_);
  for (size_t d = 0; d < domains_; ++d) {
    if (!by_domain[d].empty()) live.push_back(d);
  }
  // Parallel phase: each domain serves its own provers into their peers'
  // slots. A prover touches only its own state and handle_collect is
  // crypto-free (records are pre-MAC'd at measurement time), so the only
  // shared structure is the read-only prover table.
  struct Reply {
    bool served = false;
    sim::Duration processing;
    Bytes body;
  };
  std::vector<Reply> slots(peers.size());
  executor_->run(live.size(), [&](size_t j) {
    for (const size_t i : by_domain[live[j]]) {
      const auto it = provers_.find(peers[i]);
      if (it == provers_.end()) continue;  // silent drop, like send()
      const auto res = it->second->handle_collect(req);
      slots[i] = {true, res.processing, res.response.serialize()};
    }
  });
  // Delivery, after the join: batch order, exactly the send() loop's.
  bool delivered = false;
  for (size_t i = 0; i < peers.size(); ++i) {
    if (!slots[i].served) continue;
    delivered = true;
    if (domain_of(peers[i]) == sink_domain_) {
      ++batch_counters_.frames_local;
    } else {
      ++batch_counters_.frames_cross;
    }
    last_processing_ = slots[i].processing;
    if (receiver_) {
      receiver_(peers[i], MsgType::kCollectResponse, slots[i].body);
    }
  }
  if (delivered) ++batch_counters_.drains;
}

void DirectTransport::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
}

}  // namespace erasmus::attest
