// Verifier-side swarm collection driver over the overlay.
//
// Owns an overlay::RelayTransport and an AttestationService over a
// DeviceDirectory -- the same session machine (timeouts, retries, stray
// handling, audit hooks) every other deployment shape uses. run_round()
// floods one collection round and gathers whatever part of the swarm is
// momentarily reachable (§6).
#pragma once

#include <vector>

#include "attest/directory.h"
#include "attest/service.h"
#include "overlay/relay_transport.h"

namespace erasmus::overlay {

/// One device's outcome in a collection round.
struct DeviceStatus {
  attest::DeviceId device = 0;
  bool attested = false;  // report reached the verifier this round
  bool healthy = false;   // report verified and matched the golden digest
};

struct RelayCollectorConfig {
  RelayTransportConfig transport;
  /// Per-session retry budget inside a round's deadline. Each retry is a
  /// fresh targeted flood, i.e. a route re-discovery.
  int max_retries = 1;
  /// Per-attempt response timeout; floored by the service at twice the
  /// transport's multi-hop latency estimate.
  sim::Duration response_timeout = sim::Duration::seconds(2);
};

class RelayCollector {
 public:
  /// The verifier endpoint is node `self` on `network`; `directory` maps
  /// device ids to their overlay node ids and holds each device's record.
  /// `num_nodes` counts the overlay's nodes (devices + this endpoint).
  RelayCollector(sim::EventQueue& queue, net::Network& network,
                 net::NodeId self, attest::DeviceDirectory& directory,
                 size_t num_nodes, RelayCollectorConfig config = {});

  struct RoundResult {
    std::vector<DeviceStatus> statuses;  // indexed by device id
    size_t reports_received = 0;
    sim::Duration elapsed;  // flood to last accepted report
  };

  /// Runs one round to completion: floods a "collect k", advances the
  /// event queue to the deadline, and judges every response through the
  /// shared verifier core. Sessions still unresolved at the deadline are
  /// aborted (the device counts as not attested this round).
  RoundResult run_round(uint32_t k, sim::Duration deadline);

  RelayTransport& transport() { return transport_; }
  const attest::AttestationService& service() const { return service_; }

 private:
  sim::EventQueue& queue_;
  attest::DeviceDirectory& directory_;
  RelayTransport transport_;
  attest::AttestationService service_;

  // Per-round capture, filled by the service observer.
  std::vector<DeviceStatus> statuses_;
  size_t reports_ = 0;
  sim::Time round_start_;
  sim::Time last_report_at_;
};

}  // namespace erasmus::overlay
