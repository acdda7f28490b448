// Transport backends for the verifier-side attestation service.
//
// The collection protocol itself (protocol.h) is transport-agnostic; this
// interface decouples the AttestationService from net::Network so the same
// session state machine drives both deployment shapes the codebase uses:
//
//  * NetworkTransport -- the simulated datagram network (latency, loss,
//    link filters). Responses arrive asynchronously via the EventQueue;
//    the service's timeout/retry machinery does real work.
//  * DirectTransport  -- the in-process path of kDirect fleet collection:
//    requests are dispatched straight into the prover's handler and the
//    response is looped back synchronously at the current virtual time
//    (zero latency, no queue involvement) -- exactly the
//    reachability-at-an-instant semantics swarm collection needs (§6).
//
// Addresses are net::NodeIds in both backends; the DirectTransport's
// address space is its own attach() table and is independent of any
// Network instance.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "attest/protocol.h"
#include "common/parallel.h"
#include "net/network.h"
#include "sim/time.h"

namespace erasmus::attest {

class Prover;

class Transport {
 public:
  /// Delivery callback: source endpoint plus the unframed message. The
  /// body view is only valid for the duration of the call.
  using Receiver =
      std::function<void(net::NodeId src, MsgType type, ByteView body)>;

  virtual ~Transport() = default;

  /// Sends one framed protocol message to `peer`. Delivery guarantees are
  /// the backend's: the network may drop or delay, the direct backend
  /// replies synchronously.
  virtual void send(net::NodeId peer, MsgType type, ByteView body) = 0;

  /// Sends the same message to every peer (batched round dispatch).
  virtual void broadcast(const std::vector<net::NodeId>& peers, MsgType type,
                         ByteView body) = 0;

  /// Installs the service-side delivery callback (replaces any previous).
  virtual void set_receiver(Receiver receiver) = 0;

  /// One-way latency estimate for timeout sizing; zero for direct.
  virtual sim::Duration latency() const = 0;

  /// Drains the backend's congestion signal: the worst relay-queue
  /// occupancy fraction (0..1) reported since the last call. Backends
  /// without store-and-forward queues return 0. Draining (rather than a
  /// const peek) makes one saturation burst count as one event for the
  /// service's adaptive window.
  virtual double take_congestion() { return 0.0; }

  /// True when broadcast() has a large per-call cost independent of the
  /// batch size (a flood transport wakes the whole field for one frame).
  /// The service then coalesces dispatch into half-window batches instead
  /// of topping the window up per completion -- same sessions, far fewer
  /// broadcasts. Per-peer backends keep the default: their dispatch cost
  /// is per session, so eager refill is strictly better.
  virtual bool coalesced_dispatch() const { return false; }

  /// Hints that the NEXT send() or broadcast() carries retries rather
  /// than first-attempt dispatch. Backends may route retries differently
  /// (scoped unicast over a cached path) and attribute their stats to
  /// the retry economy. Consumed by that one call; ignored by default.
  virtual void hint_retry_wave() {}
};

/// Attaches the service to one node of a simulated datagram network.
class NetworkTransport : public Transport {
 public:
  /// `self` must already be registered on `network`; the transport
  /// installs its own datagram handler there (and removes it again on
  /// destruction, so in-flight datagrams cannot fire into a freed object).
  NetworkTransport(net::Network& network, net::NodeId self);
  ~NetworkTransport() override;

  void send(net::NodeId peer, MsgType type, ByteView body) override;
  void broadcast(const std::vector<net::NodeId>& peers, MsgType type,
                 ByteView body) override;
  void set_receiver(Receiver receiver) override;
  sim::Duration latency() const override { return network_.latency(); }

  net::NodeId self() const { return self_; }
  /// Datagrams dropped because they did not unframe to a known MsgType.
  uint64_t malformed_frames() const { return malformed_frames_; }

 private:
  net::Network& network_;
  net::NodeId self_;
  Receiver receiver_;
  uint64_t malformed_frames_ = 0;
};

/// In-process transport: each endpoint is a Prover served synchronously.
class DirectTransport : public Transport {
 public:
  /// Registers `prover` as endpoint `node` (any id space the caller
  /// likes -- fleets use the global device id).
  void attach(net::NodeId node, Prover& prover);

  /// Dispatches to the attached prover and loops the reply straight back
  /// into the receiver before returning. Unknown endpoints and requests
  /// the prover rejects (OD auth failure) produce no reply, like a silent
  /// datagram drop.
  void send(net::NodeId peer, MsgType type, ByteView body) override;
  /// Batched round dispatch, symmetric with NetworkTransport::broadcast:
  /// one pass that decodes the shared request once and serves each peer in
  /// `peers` order -- observable effects identical to the send() loop.
  void broadcast(const std::vector<net::NodeId>& peers, MsgType type,
                 ByteView body) override;
  void set_receiver(Receiver receiver) override;
  sim::Duration latency() const override { return sim::Duration(0); }

  /// Prover-side processing time charged for the last served request
  /// (busy-wait + buffer read + packet construction; see
  /// Prover::CollectResult). Zero when the last send produced no reply.
  sim::Duration last_processing() const { return last_processing_; }

  /// Shard-local radio domains: partitions the attached endpoints into
  /// `domains` contiguous-id blocks and serves collect broadcasts domain-
  /// parallel. Each domain's worker runs its own provers and writes each
  /// reply into that peer's batch slot (DETERMINISM.md R1); the slots are
  /// then delivered to the receiver in batch order -- the send() loop's
  /// order for any batch, so observable behaviour is unchanged and only
  /// the prover-side work runs in parallel. `sink` is the endpoint the
  /// verifier is co-located with: replies from its domain count as local
  /// traffic, everything else as cross-domain.
  /// Call AFTER the last attach(); `executor` must outlive the transport.
  void enable_batch_serve(common::ParallelExecutor& executor, size_t domains,
                          net::NodeId sink);
  /// The domain an attached endpoint belongs to (batch serve only).
  size_t domain_of(net::NodeId node) const;

  /// Cumulative batch-serve traffic, counted at delivery. The runner's
  /// channels/* metrics read these; their names every kDirect metrics
  /// table and the fleet benchmark's golden digest pin.
  struct BatchCounters {
    uint64_t frames_local = 0;  // replies from the sink's own domain
    uint64_t frames_cross = 0;  // replies that crossed domains
    uint64_t drains = 0;        // batch serves that delivered >= 1 reply
  };
  const BatchCounters& batch_counters() const { return batch_counters_; }

 private:
  /// Per-peer dispatch of an already-decoded request (send() and
  /// broadcast() decode once, then share these).
  void serve_collect(net::NodeId peer, const CollectRequest& req);
  void serve_od(net::NodeId peer, const OdRequest& req);
  /// The domain-parallel broadcast path (batch serve enabled, >= 2 peers).
  void serve_collect_batch(const std::vector<net::NodeId>& peers,
                           const CollectRequest& req);

  std::unordered_map<net::NodeId, Prover*> provers_;
  Receiver receiver_;
  sim::Duration last_processing_;

  // Batch serve state (inert until enable_batch_serve).
  common::ParallelExecutor* executor_ = nullptr;
  BatchCounters batch_counters_;
  size_t domains_ = 0;
  size_t sink_domain_ = 0;
  net::NodeId domain_base_ = 0;  // attached id range: [base, base + span)
  size_t domain_span_ = 0;
};

}  // namespace erasmus::attest
