// Packet-level on-demand swarm attestation (SEDA-style baseline, §2/§6).
//
// The counterpart of the collection overlay (src/overlay/) for the
// ON-DEMAND paradigm: the
// verifier's request floods down, every device computes a FRESH measurement
// in real time (the expensive step ERASMUS self-measurement amortises), and
// reports aggregate bottom-up -- a parent waits for its acknowledged
// children before reporting, so the protocol holds the whole tree hostage
// to connectivity for its full duration. Under mobility, edges break while
// devices are still hashing, and subtrees vanish from the aggregate: this
// module makes the paper's §6 argument measurable message-by-message
// against the ERASMUS relay protocol.
//
// Aggregation model: report lists (device, fresh measurement) pairs, merged
// up the tree (SANA-style report aggregation); the root verifies each entry
// with the device's key.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "attest/directory.h"
#include "attest/prover.h"
#include "net/network.h"
#include "swarm/qosa.h"

namespace erasmus::swarm {

/// Wire tags, disjoint from attest::MsgType and RelayMsg.
enum class SedaMsg : uint8_t {
  kAttestFlood = 0x30,
  kChildAck = 0x31,
  kAggregate = 0x32,
};

struct SedaConfig {
  /// How long a parent waits for acknowledged children past its own
  /// measurement before giving up on them.
  sim::Duration child_timeout = sim::Duration::seconds(2);
  uint8_t ttl = 8;
};

/// Per-device SEDA participant.
class SedaAgent {
 public:
  SedaAgent(sim::EventQueue& queue, net::Network& network, net::NodeId self,
            uint32_t device_id, attest::Prover& prover, size_t swarm_size,
            SedaConfig config);

  struct Stats {
    uint64_t rounds_joined = 0;
    uint64_t measurements_computed = 0;
    uint64_t children_lost = 0;  // acked children that never reported
  };
  const Stats& stats() const { return stats_; }

 private:
  struct RoundState {
    net::NodeId parent = 0;
    std::set<uint32_t> acked_children;
    std::set<uint32_t> reported_children;
    std::vector<std::pair<uint32_t, Bytes>> aggregate;  // (device, M wire)
    bool measurement_done = false;
    bool reported = false;
  };

  void on_datagram(const net::Datagram& dgram);
  void handle_flood(uint32_t round, uint8_t ttl, net::NodeId from);
  void maybe_report(uint32_t round);
  void send_report(uint32_t round);

  sim::EventQueue& queue_;
  net::Network& network_;
  net::NodeId self_;
  uint32_t device_id_;
  attest::Prover& prover_;
  size_t swarm_size_;
  SedaConfig config_;
  std::map<uint32_t, RoundState> rounds_;
  Stats stats_;
};

/// Verifier-side driver for one SEDA round. Device records (key, golden
/// epochs) come from the shared DeviceDirectory -- one verifier party.
class SedaCollector {
 public:
  /// `directory` maps device ids 0..swarm_size-1 to their records; it must
  /// outlive the collector.
  SedaCollector(sim::EventQueue& queue, net::Network& network,
                net::NodeId self, const attest::DeviceDirectory& directory,
                size_t swarm_size, SedaConfig config = {});

  struct RoundResult {
    std::vector<DeviceStatus> statuses;
    size_t fresh_measurements_received = 0;
    sim::Duration elapsed;
  };

  /// Floods one attestation round and waits out `deadline`.
  RoundResult run_round(sim::Duration deadline);

 private:
  void on_datagram(const net::Datagram& dgram);

  sim::EventQueue& queue_;
  net::Network& network_;
  net::NodeId self_;
  const attest::DeviceDirectory& directory_;
  size_t swarm_size_;
  SedaConfig config_;
  uint32_t next_round_ = 1;
  uint32_t active_round_ = 0;
  sim::Time round_start_;
  sim::Time last_report_at_;
  std::map<uint32_t, Bytes> received_;  // device -> measurement wire
};

}  // namespace erasmus::swarm
