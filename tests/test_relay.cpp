// Tests for the multi-hop collection overlay (tree-routed collection of
// self-measurements over the simulated network, §6): wire protocol,
// per-device relay nodes (store-and-forward, bounded queues, route
// repair), the RelayTransport, and the AttestationService-backed
// RelayCollector.
#include <gtest/gtest.h>

#include <functional>

#include "crypto/hkdf.h"
#include "overlay/collector.h"
#include "overlay/relay_node.h"
#include "swarm/mobility.h"

namespace erasmus::overlay {
namespace {

using sim::Duration;
using sim::Time;

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

Bytes device_key(uint32_t id) {
  Bytes salt(4);
  salt[0] = static_cast<uint8_t>(id);
  return crypto::hkdf(bytes_of("relay-test-master"), salt,
                      bytes_of("erasmus/device-key"), 32);
}

// A full packet-level swarm: n provers with relay nodes, a shared
// DeviceDirectory (node id == device id), one overlay collector.
struct OverlayRig {
  sim::EventQueue queue;
  net::Network network;
  std::vector<std::unique_ptr<hw::SmartPlusArch>> archs;
  std::vector<std::unique_ptr<attest::Prover>> provers;
  std::vector<std::unique_ptr<RelayNode>> nodes;
  attest::DeviceDirectory directory;
  net::NodeId collector_node = 0;
  std::unique_ptr<RelayCollector> collector;

  explicit OverlayRig(size_t n, double loss = 0.0,
                      RelayCollectorConfig config = {},
                      RelayNodeConfig node_config = {})
      : network(queue, Duration::millis(2), loss, /*seed=*/7) {
    for (uint32_t id = 0; id < n; ++id) {
      auto arch = std::make_unique<hw::SmartPlusArch>(
          device_key(id), 4096, 1024, 16 * kRecordBytes);
      auto prover = std::make_unique<attest::Prover>(
          queue, *arch, arch->app_region(), arch->store_region(),
          std::make_unique<attest::RegularScheduler>(Duration::minutes(10)),
          attest::ProverConfig{});

      const net::NodeId node = network.add_node({});
      nodes.push_back(std::make_unique<RelayNode>(queue, network, node,
                                                  *prover, node_config));

      attest::DeviceRecord record;
      record.key = device_key(id);
      record.set_golden(crypto::Hash::digest(
          crypto::HashAlgo::kSha256,
          arch->memory().view(arch->app_region(), true)));
      directory.add(node, std::move(record));

      archs.push_back(std::move(arch));
      provers.push_back(std::move(prover));
    }
    collector_node = network.add_node({});
    collector = std::make_unique<RelayCollector>(
        queue, network, collector_node, directory, n + 1, config);
  }

  void start_and_run(Duration d) {
    for (auto& p : provers) p->start();
    queue.run_until(queue.now() + d);
  }

  uint64_t total(uint64_t RelayNode::Stats::*field) const {
    uint64_t sum = 0;
    for (const auto& node : nodes) sum += node->stats().*field;
    return sum;
  }
};

TEST(OverlayWire, FloodAndReportRoundTrip) {
  CollectFlood flood;
  flood.flood = 42;
  flood.targets = {7, 11};
  flood.ttl = 3;
  flood.inner_type = 1;
  flood.request = bytes_of("req");
  const auto f = CollectFlood::deserialize(flood.serialize());
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->flood, 42u);
  EXPECT_EQ(f->targets, (std::vector<net::NodeId>{7, 11}));
  EXPECT_TRUE(f->serves(7));
  EXPECT_TRUE(f->serves(11));
  EXPECT_FALSE(f->serves(8));
  EXPECT_EQ(f->ttl, 3u);
  EXPECT_EQ(f->inner_type, 1u);
  EXPECT_EQ(f->request, bytes_of("req"));

  CollectFlood everyone;
  everyone.targets = {kEveryone};
  EXPECT_TRUE(everyone.serves(8));

  // The one uplink envelope, both kinds. Only a raw report's body carries
  // inner_type; an aggregate's is the same envelope one byte shorter.
  RelayReport report;
  report.flood = 42;
  report.origin = 9;
  report.hops = 5;
  report.inner_type = 2;
  report.queue = 37;
  report.path = {9, 4, 2};
  report.response = bytes_of("payload");
  RelayReport agg = report;
  agg.kind = RelayMsg::kAggregateReport;
  agg.inner_type = 0;
  EXPECT_EQ(agg.serialize().size() + 1, report.serialize().size());
  for (const RelayReport& sent : {report, agg}) {
    const auto r = RelayReport::deserialize(sent.kind, sent.serialize());
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->kind, sent.kind);
    EXPECT_EQ(r->aggregate(), sent.kind == RelayMsg::kAggregateReport);
    EXPECT_EQ(r->flood, 42u);
    EXPECT_EQ(r->origin, 9u);
    EXPECT_EQ(r->hops, 5u);
    EXPECT_EQ(r->inner_type, sent.inner_type);
    EXPECT_EQ(r->queue, 37u);
    EXPECT_EQ(r->path, (std::vector<net::NodeId>{9, 4, 2}));
    EXPECT_EQ(r->response, bytes_of("payload"));
    EXPECT_EQ(r->frame(), frame_relay(sent.kind, sent.serialize()));

    // Truncated bodies must be rejected, not read past the end.
    const Bytes full = sent.serialize();
    for (size_t cut = 0; cut < full.size(); ++cut) {
      EXPECT_FALSE(RelayReport::deserialize(sent.kind,
                                            ByteView(full.data(), cut))
                       .has_value())
          << "accepted a " << cut << "-byte prefix";
    }
  }
  // Each body parses only under its own tag, and no other tag is a report.
  EXPECT_FALSE(RelayReport::deserialize(RelayMsg::kAggregateReport,
                                        report.serialize())
                   .has_value());
  EXPECT_FALSE(
      RelayReport::deserialize(RelayMsg::kRelayReport, agg.serialize())
          .has_value());
  EXPECT_FALSE(
      RelayReport::deserialize(RelayMsg::kScopedNak, report.serialize())
          .has_value());

  // Truncated frames must be rejected, not read past the end.
  EXPECT_FALSE(CollectFlood::deserialize(Bytes{1, 2}).has_value());
  const Bytes full = flood.serialize();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(CollectFlood::deserialize(
                     ByteView(full.data(), cut)).has_value())
        << "accepted a " << cut << "-byte prefix";
  }
}

/// Decodes `in` as a `Msg` and re-serializes it; nullopt when rejected.
template <typename Msg>
std::optional<Bytes> reparse(ByteView in) {
  const auto msg = Msg::deserialize(in);
  if (!msg) return std::nullopt;
  return msg->serialize();
}

// Decoder fuzz: seeded mutations of one valid input per overlay decoder
// (no corpus). Every decoder sees every mutant; whatever one accepts must
// re-serialize to exactly its input, so no two byte strings decode to the
// same message.
TEST(OverlayWire, SeededMutantsNeverCrashAndAcceptedOnesReserializeExactly) {
  using Reparse = std::function<std::optional<Bytes>(ByteView)>;
  const auto report_of = [](RelayMsg kind) -> Reparse {
    return [kind](ByteView in) -> std::optional<Bytes> {
      const auto r = RelayReport::deserialize(kind, in);
      if (!r) return std::nullopt;
      return r->serialize();
    };
  };
  const std::vector<Reparse> decoders = {
      reparse<CollectFlood>,
      report_of(RelayMsg::kRelayReport),
      report_of(RelayMsg::kAggregateReport),
      reparse<ScopedRequest>,
      reparse<ScopedNak>,
      reparse<aggregate::AggregateFrame>,
      [](ByteView in) -> std::optional<Bytes> {
        const auto u = unframe_relay(in);
        if (!u) return std::nullopt;
        return frame_relay(u->first, u->second);
      },
  };

  CollectFlood flood;
  flood.flood = 7;
  flood.targets = {3, 5};
  flood.flags = kFloodAggregate;
  flood.inner_type = 1;
  flood.request = bytes_of("req");
  RelayReport report;
  report.flood = 7;
  report.origin = 5;
  report.hops = 1;
  report.inner_type = 2;
  report.queue = 9;
  report.path = {5, 3};
  report.response = bytes_of("response");
  RelayReport agg = report;
  agg.kind = RelayMsg::kAggregateReport;
  agg.inner_type = 0;
  ScopedRequest scoped;
  scoped.flood = 8;
  scoped.inner_type = 1;
  scoped.route = {3, 5};
  scoped.request = bytes_of("req");
  aggregate::AggregateFrame frame;
  frame.flood = 7;
  frame.head = 3;
  frame.members = {4, 5, 6};
  frame.bitmap = {0x05};
  frame.root = Bytes(32, 0x11);
  frame.raw_bytes = 300;
  frame.mac = Bytes(32, 0x22);
  const std::vector<Bytes> seeds = {
      flood.serialize(),  report.serialize(),
      agg.serialize(),    scoped.serialize(),
      ScopedNak{8, 5}.serialize(), frame.serialize(),
      report.frame()};

  uint32_t x = 0x5EED;
  const auto next = [&x] {
    x = x * 1664525u + 1013904223u;
    return x >> 8;
  };
  size_t accepted = 0;
  size_t decoded = 0;
  for (const Bytes& seed : seeds) {
    for (int trial = 0; trial < 2000; ++trial) {
      Bytes mutant = seed;
      const uint32_t edits = 1 + next() % 3;
      for (uint32_t e = 0; e < edits; ++e) {
        const size_t at = mutant.empty() ? 0 : next() % mutant.size();
        switch (next() % 4) {
          case 0:  // bit flip
            if (!mutant.empty()) mutant[at] ^= 1u << (next() % 8);
            break;
          case 1:  // overwrite
            if (!mutant.empty()) mutant[at] = static_cast<uint8_t>(next());
            break;
          case 2:  // truncation
            mutant.resize(at);
            break;
          default:  // insertion
            mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(at),
                          static_cast<uint8_t>(next()));
            break;
        }
      }
      for (const Reparse& decode : decoders) {
        ++decoded;
        const auto again = decode(mutant);
        if (!again) continue;
        ++accepted;
        ASSERT_EQ(*again, mutant) << "accepted a non-canonical mutant";
      }
    }
  }
  // Neither vacuous nor a decoder that accepts anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, decoded);
}

TEST(Overlay, FullyConnectedSwarmAllAttested) {
  OverlayRig rig(6);  // no link filter: everyone hears everyone
  rig.start_and_run(Duration::hours(1));

  const auto result = rig.collector->run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports_received, 6u);
  for (const auto& s : result.statuses) {
    EXPECT_TRUE(s.attested) << "device " << s.device;
    EXPECT_TRUE(s.healthy) << "device " << s.device;
  }
  EXPECT_GT(result.elapsed.ns(), 0u);
}

// collector -- 0 -- 1 -- 2 -- 3 (line): reports must hop back through the
// parents, exercising the store-and-forward relay path.
void line_filter(net::Network& network, net::NodeId c) {
  network.set_link_filter([c](net::NodeId a, net::NodeId b) {
    const auto adjacent = [&](net::NodeId x, net::NodeId y) {
      if (x > y) std::swap(x, y);
      if (y == c) return x == 0;  // collector only hears dev 0
      return y - x == 1;          // chain 0-1-2-3
    };
    return adjacent(a, b);
  });
}

TEST(Overlay, MultiHopLineTopology) {
  OverlayRig rig(4);
  line_filter(rig.network, rig.collector_node);
  rig.start_and_run(Duration::hours(1));

  const auto result = rig.collector->run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports_received, 4u)
      << "all devices reachable through multi-hop relay";
  EXPECT_GT(rig.total(&RelayNode::Stats::reports_relayed), 0u)
      << "inner devices must have relayed reports";

  // The transport's histogram sees the depth: device 3's report crossed
  // three relays.
  const auto& hops = rig.collector->transport().hop_histogram();
  ASSERT_GE(hops.size(), 4u);
  EXPECT_EQ(hops[3], 1u);
}

TEST(Overlay, TtlBoundsFloodDepth) {
  RelayCollectorConfig config;
  config.transport.ttl = 1;
  OverlayRig rig(4, /*loss=*/0.0, config);
  line_filter(rig.network, rig.collector_node);
  rig.start_and_run(Duration::hours(1));

  // TTL 1: flood reaches device 0 (ttl 1) and device 1 (ttl 0, no
  // re-flood); 2 and 3 stay unreached and resolve through the timeout
  // path as unreachable sessions.
  const auto result = rig.collector->run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports_received, 2u);
  EXPECT_FALSE(result.statuses[2].attested);
  EXPECT_GT(rig.collector->service().stats().unreachable_sessions, 0u);
}

TEST(Overlay, PartitionedSwarmPartialCoverage) {
  OverlayRig rig(6);
  const net::NodeId c = rig.collector_node;
  // Devices 0-2 connected to the collector side; 3-5 isolated island.
  rig.network.set_link_filter([c](net::NodeId a, net::NodeId b) {
    const auto side = [&](net::NodeId x) { return x == c || x <= 2; };
    return side(a) == side(b);
  });
  rig.start_and_run(Duration::hours(1));

  const auto result = rig.collector->run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports_received, 3u);
  EXPECT_TRUE(result.statuses[0].attested);
  EXPECT_FALSE(result.statuses[4].attested);
}

TEST(Overlay, InfectedDeviceFlaggedThroughRelayPath) {
  OverlayRig rig(5);
  rig.start_and_run(Duration::minutes(15));
  // Persistent malware on device 3, then let a measurement catch it.
  rig.provers[3]->memory().write(rig.provers[3]->attested_region(), 7,
                                 bytes_of("EVIL"), false);
  rig.queue.run_until(rig.queue.now() + Duration::minutes(20));

  const auto result = rig.collector->run_round(4, Duration::seconds(10));
  EXPECT_TRUE(result.statuses[3].attested);
  EXPECT_FALSE(result.statuses[3].healthy);
  EXPECT_TRUE(result.statuses[1].healthy);
}

TEST(Overlay, DuplicateReportsCountedOnce) {
  // In a dense topology the same report can arrive over several paths;
  // the transport dedups per (flood, origin), so the collector counts
  // each device exactly once.
  OverlayRig rig(8);
  rig.start_and_run(Duration::hours(1));
  const auto result = rig.collector->run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports_received, 8u);
  EXPECT_EQ(result.statuses.size(), 8u);
  const auto& stats = rig.collector->transport().stats();
  EXPECT_EQ(stats.reports_received, 8u);
}

TEST(Overlay, RoundsAreIndependent) {
  OverlayRig rig(4);
  rig.start_and_run(Duration::hours(1));
  const auto r1 = rig.collector->run_round(6, Duration::seconds(10));
  rig.queue.run_until(rig.queue.now() + Duration::minutes(30));
  const auto r2 = rig.collector->run_round(6, Duration::seconds(10));
  EXPECT_EQ(r1.reports_received, 4u);
  EXPECT_EQ(r2.reports_received, 4u);
}

TEST(Overlay, LossyNetworkDegradesGracefully) {
  OverlayRig rig(6, /*loss=*/0.2);
  rig.start_and_run(Duration::hours(1));
  const auto result = rig.collector->run_round(6, Duration::seconds(10));
  // Dense flooding provides path diversity, and the service's retries
  // (each a fresh flood) re-ask anyone whose report was lost.
  EXPECT_GE(result.reports_received, 3u);
}

TEST(Overlay, MalformedFramesCountedNotServed) {
  OverlayRig rig(2);
  rig.start_and_run(Duration::minutes(30));

  // Truncated CollectFlood: the relay tag with a short body.
  Bytes bad_flood = {static_cast<uint8_t>(RelayMsg::kCollectFlood), 1, 2};
  // Truncated RelayReport aimed at the collector.
  Bytes bad_report = {static_cast<uint8_t>(RelayMsg::kRelayReport), 9};
  // Not even a known overlay tag.
  Bytes bad_tag = {0x7f, 0x00};

  rig.network.send(rig.collector_node, 0, bad_flood);
  rig.network.send(rig.collector_node, 0, bad_tag);
  rig.network.send(0, rig.collector_node, bad_report);
  rig.network.send(0, rig.collector_node, bad_tag);
  // Bounded advance: the provers' measurement timers re-arm forever, so
  // run_until, never run().
  rig.queue.run_until(rig.queue.now() + Duration::seconds(1));

  EXPECT_EQ(rig.nodes[0]->stats().malformed_frames, 2u);
  EXPECT_EQ(rig.collector->transport().stats().malformed_frames, 2u);
  EXPECT_EQ(rig.nodes[0]->stats().requests_served, 0u)
      << "truncated floods must not reach the prover";

  // The overlay still works afterwards.
  const auto result = rig.collector->run_round(2, Duration::seconds(10));
  EXPECT_EQ(result.reports_received, 2u);
}

TEST(Overlay, BoundedRelayQueueDropsUnderConvergence) {
  // Star: collector -- hub(0) -- {1..5}. Every leaf report converges on
  // the hub within one latency, so a depth-2 store-and-forward buffer
  // must drop; the default depth in a second rig must not.
  RelayCollectorConfig config;
  config.max_retries = 0;  // no re-asks: observe the raw first flood
  RelayNodeConfig node_config;
  node_config.queue_depth = 2;
  node_config.forward_spacing = Duration::millis(50);

  const auto star = [](net::Network& network, net::NodeId c) {
    network.set_link_filter([c](net::NodeId a, net::NodeId b) {
      if (a > b) std::swap(a, b);
      if (b == c) return a == 0;       // collector hears only the hub
      return a == 0;                   // hub hears every leaf
    });
  };

  OverlayRig tight(6, 0.0, config, node_config);
  star(tight.network, tight.collector_node);
  tight.start_and_run(Duration::hours(1));
  const auto r1 = tight.collector->run_round(6, Duration::seconds(30));
  EXPECT_GT(tight.nodes[0]->stats().reports_dropped, 0u);
  EXPECT_LT(r1.reports_received, 6u);
  EXPECT_GE(r1.reports_received, 1u);

  RelayNodeConfig roomy = node_config;
  roomy.queue_depth = 16;
  OverlayRig wide(6, 0.0, config, roomy);
  star(wide.network, wide.collector_node);
  wide.start_and_run(Duration::hours(1));
  const auto r2 = wide.collector->run_round(6, Duration::seconds(30));
  EXPECT_EQ(wide.total(&RelayNode::Stats::reports_dropped), 0u);
  EXPECT_EQ(r2.reports_received, 6u);
}

TEST(Overlay, RouteRepairWhenParentChurnsMidRound) {
  // Diamond: collector -- {0, 1}, {0, 1} -- 2. Device 2 adopts 0 as its
  // parent (first flood arrival), 1 as the alternate. The 0--2 link then
  // breaks BEFORE 2's report leaves its queue: the link probe must swap
  // the uplink to 1 and the report still arrives.
  RelayNodeConfig node_config;
  node_config.forward_spacing = Duration::millis(50);  // window for churn
  OverlayRig rig(3, 0.0, {}, node_config);

  auto broken = std::make_shared<bool>(false);
  const net::NodeId c = rig.collector_node;
  const auto connected = [c, broken](net::NodeId a, net::NodeId b) {
    if (a > b) std::swap(a, b);
    if (b == c) return a <= 1;                    // collector -- {0,1}
    if (a == 0 && b == 2) return !*broken;        // churning edge
    if (a == 1 && b == 2) return true;
    return a <= 1 && b <= 1 ? false : false;      // 0 -- 1 not linked
  };
  rig.network.set_link_filter(connected);
  for (auto& node : rig.nodes) node->set_link_probe(connected);
  rig.start_and_run(Duration::hours(1));

  // Break the parent edge shortly after the flood passes but before the
  // 50 ms forward spacing elapses.
  rig.queue.schedule_after(Duration::millis(20), [broken] {
    *broken = true;
  });
  const auto result = rig.collector->run_round(6, Duration::seconds(10));

  EXPECT_TRUE(result.statuses[2].attested)
      << "report must survive the mid-round parent churn";
  EXPECT_EQ(rig.nodes[2]->stats().route_repairs, 1u);
}

TEST(Overlay, SpoofedAggregateHeadRejectedBeforeAnyState) {
  // The origin-range guard covers both report kinds: an aggregate whose
  // head is no node of this network is spoofed_rejected before it can
  // feed the congestion signal or the route cache, and never reaches the
  // aggregate receiver -- however well-formed its payload.
  sim::EventQueue queue;
  net::Network network(queue, Duration::millis(2));
  const net::NodeId verifier = network.add_node({});
  const net::NodeId relay = network.add_node({});
  RelayTransportConfig tc;
  tc.scoped_retries = true;
  tc.aggregate = true;
  RelayTransport transport(network, verifier, /*num_nodes=*/2, tc);
  size_t delivered = 0;
  transport.set_aggregate_receiver(
      [&](const aggregate::AggregateFrame&, uint8_t) { ++delivered; });
  // Launch flood 1, so the envelope below is not merely stale.
  transport.send(relay, attest::MsgType::kCollectRequest,
                 attest::CollectRequest{2}.serialize());

  const auto envelope = [](net::NodeId head, net::NodeId via) {
    aggregate::AggregateFrame frame;
    frame.flood = 1;
    frame.head = head;
    frame.root = Bytes(32, 0);
    frame.mac = Bytes(32, 0);
    RelayReport env;
    env.kind = RelayMsg::kAggregateReport;
    env.flood = 1;
    env.origin = head;
    env.hops = head == via ? 0 : 1;
    env.queue = 200;
    env.path = head == via ? std::vector<net::NodeId>{head}
                           : std::vector<net::NodeId>{head, via};
    env.response = frame.serialize();
    return env.frame();
  };
  network.send(relay, verifier, envelope(/*head=*/7, relay));
  queue.run_until(queue.now() + Duration::seconds(1));
  EXPECT_EQ(transport.stats().spoofed_rejected, 1u);
  EXPECT_EQ(transport.stats().aggregates_received, 0u);
  EXPECT_EQ(transport.stats().malformed_frames, 0u);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(transport.take_congestion(), 0.0);
  EXPECT_FALSE(transport.has_fresh_route(relay));

  // Control: the same envelope from a real head is accepted.
  network.send(relay, verifier, envelope(/*head=*/relay, relay));
  queue.run_until(queue.now() + Duration::seconds(1));
  EXPECT_EQ(transport.stats().aggregates_received, 1u);
  EXPECT_EQ(delivered, 1u);
  EXPECT_GT(transport.take_congestion(), 0.0);
  EXPECT_TRUE(transport.has_fresh_route(relay));
}

// --- Scoped retries ----------------------------------------------------------

TEST(Overlay, ScopedRetryRidesCachedRouteAndBurnsIt) {
  RelayCollectorConfig config;
  config.transport.scoped_retries = true;
  OverlayRig rig(4, /*loss=*/0.0, config);
  line_filter(rig.network, rig.collector_node);
  rig.start_and_run(Duration::hours(1));

  const auto round = rig.collector->run_round(6, Duration::seconds(10));
  ASSERT_EQ(round.reports_received, 4u);
  RelayTransport& transport = rig.collector->transport();

  // Device 3's report crossed 2, 1 and 0: the recorded path vouches for
  // a route to every one of them, not just the origin.
  for (net::NodeId node = 0; node < 4; ++node) {
    EXPECT_TRUE(transport.has_fresh_route(node)) << "node " << node;
  }

  // A retry-shaped send (the service hints retries before sending)
  // unicasts down the cached parent path -- no flood.
  const uint64_t floods_before = transport.stats().targeted_floods;
  const Bytes body = attest::CollectRequest{2}.serialize();
  transport.hint_retry_wave();
  transport.send(2, attest::MsgType::kCollectRequest, body);
  EXPECT_EQ(transport.stats().scoped_sent, 1u);
  EXPECT_EQ(transport.stats().targeted_floods, floods_before);

  // The route is burned until a fresh report re-vouches for it: a second
  // retry before any response must fall back to a targeted flood.
  EXPECT_FALSE(transport.has_fresh_route(2));
  transport.hint_retry_wave();
  transport.send(2, attest::MsgType::kCollectRequest, body);
  EXPECT_EQ(transport.stats().scoped_sent, 1u);
  EXPECT_EQ(transport.stats().scoped_fallbacks, 1u);
  EXPECT_EQ(transport.stats().targeted_floods, floods_before + 1);

  // The scoped unicast still produces a served response that climbs the
  // same hops back up (and re-vouches for the route).
  const uint64_t reports_before = transport.stats().reports_received;
  rig.queue.run_until(rig.queue.now() + Duration::seconds(1));
  EXPECT_GT(transport.stats().reports_received, reports_before);
  EXPECT_TRUE(transport.has_fresh_route(2));
}

TEST(Overlay, ScopedRetryFallsBackToFloodOnStaleRoute) {
  RelayCollectorConfig config;
  config.transport.scoped_retries = true;
  OverlayRig rig(4, /*loss=*/0.0, config);
  line_filter(rig.network, rig.collector_node);
  rig.start_and_run(Duration::hours(1));

  rig.collector->run_round(6, Duration::seconds(10));
  RelayTransport& transport = rig.collector->transport();
  ASSERT_TRUE(transport.has_fresh_route(3));

  // Let the route age past its TTL: at vehicle speeds yesterday's path
  // is fiction, so the retry must re-discover via a full flood.
  rig.queue.run_until(rig.queue.now() + Duration::minutes(5));
  EXPECT_FALSE(transport.has_fresh_route(3));
  const Bytes body = attest::CollectRequest{2}.serialize();
  transport.hint_retry_wave();
  transport.send(3, attest::MsgType::kCollectRequest, body);
  EXPECT_EQ(transport.stats().scoped_sent, 0u);
  EXPECT_EQ(transport.stats().scoped_fallbacks, 1u);
  EXPECT_EQ(transport.stats().targeted_floods, 1u);
}

TEST(Overlay, BrokenScopedHopNaksAndEvictsRoute) {
  RelayCollectorConfig config;
  config.transport.scoped_retries = true;
  OverlayRig rig(4, /*loss=*/0.0, config);

  // Line collector -- 0 -- 1 -- 2 -- 3 whose 1--2 edge we can sever.
  auto broken = std::make_shared<bool>(false);
  const net::NodeId c = rig.collector_node;
  const auto connected = [c, broken](net::NodeId a, net::NodeId b) {
    if (a > b) std::swap(a, b);
    if (b == c) return a == 0;
    if (a == 1 && b == 2) return !*broken;
    return b - a == 1;
  };
  rig.network.set_link_filter(connected);
  for (auto& node : rig.nodes) node->set_link_probe(connected);
  rig.start_and_run(Duration::hours(1));

  rig.collector->run_round(6, Duration::seconds(10));
  RelayTransport& transport = rig.collector->transport();
  ASSERT_TRUE(transport.has_fresh_route(3));

  // The cached route to 3 runs 0 -> 1 -> 2 -> 3; break it mid-path. The
  // hop that notices (1, probing toward 2) must NAK instead of
  // transmitting into the void, and the NAK must evict the route.
  *broken = true;
  const Bytes body = attest::CollectRequest{2}.serialize();
  transport.hint_retry_wave();
  transport.send(3, attest::MsgType::kCollectRequest, body);
  rig.queue.run_until(rig.queue.now() + Duration::seconds(1));

  EXPECT_EQ(transport.stats().scoped_sent, 1u);
  EXPECT_EQ(transport.stats().naks_received, 1u);
  EXPECT_EQ(rig.nodes[1]->stats().naks_sent, 1u);
  EXPECT_EQ(rig.nodes[0]->stats().naks_forwarded, 1u);
  EXPECT_FALSE(transport.has_fresh_route(3))
      << "a NAKed route must not be offered again";
  // The next retry re-floods (and re-discovery would route around the
  // break if the topology allowed it).
  transport.hint_retry_wave();
  transport.send(3, attest::MsgType::kCollectRequest, body);
  EXPECT_EQ(transport.stats().targeted_floods, 1u);
}

TEST(Overlay, MobileSwarmMomentaryReachability) {
  // The §6 shape end to end: a random-waypoint swarm whose instantaneous
  // topology gates every hop. Collection harvests a (deterministic, seed-
  // fixed) subset each round without any standing tree.
  OverlayRig rig(12);
  swarm::MobilityConfig mc;
  mc.devices = 12;
  mc.field_size = 220.0;
  mc.radio_range = 60.0;
  mc.seed = 5;
  auto mobility = std::make_shared<swarm::RandomWaypointMobility>(mc);
  auto& queue = rig.queue;
  const net::NodeId c = rig.collector_node;
  rig.network.set_link_filter([mobility, &queue, c](net::NodeId a,
                                                    net::NodeId b) {
    const auto dev = [c](net::NodeId n) {
      return n == c ? 0u : static_cast<swarm::DeviceId>(n);
    };
    if (dev(a) == dev(b)) return true;  // collector rides on device 0
    return mobility->connected(dev(a), dev(b), queue.now());
  });
  rig.start_and_run(Duration::hours(1));

  const auto r1 = rig.collector->run_round(6, Duration::seconds(10));
  EXPECT_GE(r1.reports_received, 1u);
  EXPECT_LE(r1.reports_received, 12u);
  // Device 0 is the collector's co-located uplink: always reachable.
  EXPECT_TRUE(r1.statuses[0].attested);
}

}  // namespace
}  // namespace erasmus::overlay
