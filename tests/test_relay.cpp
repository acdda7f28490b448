// Tests for the multi-hop collection overlay (tree-routed collection of
// self-measurements over the simulated network, §6): wire protocol,
// per-device relay nodes (store-and-forward, bounded queues, route
// repair), the RelayTransport, and deadline-bounded rounds driven by
// AttestationService::collect_until.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "attest/service.h"
#include "common/serde.h"
#include "crypto/hkdf.h"
#include "overlay/relay_node.h"
#include "overlay/relay_transport.h"
#include "seeded_fuzz.h"
#include "sim/rng.h"
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
// DeviceDirectory (node id == device id), and the verifier endpoint: a
// RelayTransport under an AttestationService with a fleet-sized window.
struct OverlayRig {
  sim::EventQueue queue;
  net::Network network;
  std::vector<std::unique_ptr<hw::SmartPlusArch>> archs;
  std::vector<std::unique_ptr<attest::Prover>> provers;
  std::vector<std::unique_ptr<RelayNode>> nodes;
  attest::DeviceDirectory directory;
  net::NodeId collector_node = 0;
  std::unique_ptr<RelayTransport> transport;
  std::unique_ptr<attest::AttestationService> service;

  /// One round's verdicts, indexed by device id.
  struct Round {
    std::vector<bool> attested;  // a report reached the verifier
    std::vector<bool> healthy;   // ...verified and fresh
    size_t reports = 0;
    Duration elapsed;  // round start to the last report
  };

  explicit OverlayRig(size_t n, double loss = 0.0,
                      RelayTransportConfig transport_config = {},
                      RelayNodeConfig node_config = {}, int max_retries = 1)
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
      record.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, device_key(id));
      record.set_golden(crypto::Hash::digest(
          crypto::HashAlgo::kSha256,
          arch->memory().view(arch->app_region(), true)));
      directory.add(node, std::move(record));

      archs.push_back(std::move(arch));
      provers.push_back(std::move(prover));
    }
    collector_node = network.add_node({});
    transport_config.flood_memory =
        std::max(transport_config.flood_memory, flood_memory_for(n));
    transport = std::make_unique<RelayTransport>(network, collector_node,
                                                 n + 1, transport_config);
    attest::ServiceConfig sc;
    sc.response_timeout = Duration::seconds(2);
    sc.max_retries = max_retries;
    sc.window = attest::WindowSpec::parse("fleet");
    sc.keep_audit = false;
    service = std::make_unique<attest::AttestationService>(queue, *transport,
                                                           directory, sc);
  }

  /// Floods one collection round over every device and listens until
  /// `deadline` from now.
  Round run_round(uint32_t k, Duration deadline) {
    std::vector<attest::DeviceId> all(directory.size());
    for (attest::DeviceId id = 0; id < all.size(); ++id) all[id] = id;
    const Time start = queue.now();
    Round round{std::vector<bool>(all.size()), std::vector<bool>(all.size()),
                0, Duration(0)};
    for (const auto& o : service->collect_until(all, start + deadline, k)) {
      if (!o.reachable) continue;
      round.attested[o.device] = true;
      round.healthy[o.device] = o.report.device_trustworthy() &&
                                o.report.freshness.has_value();
      ++round.reports;
      round.elapsed = o.at - start;
    }
    return round;
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
  EXPECT_EQ(f->ttl, 3u);
  EXPECT_EQ(f->inner_type, 1u);
  EXPECT_EQ(f->request, bytes_of("req"));
  const Bytes body = flood.serialize();
  const auto view = FloodView::parse(body);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->serves(7));
  EXPECT_TRUE(view->serves(11));
  EXPECT_FALSE(view->serves(8));

  CollectFlood everyone;
  everyone.targets = {kEveryone};
  const Bytes everyone_body = everyone.serialize();
  EXPECT_TRUE(FloodView::parse(everyone_body)->serves(8));

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

// The owned decoders the in-place views replaced, kept as the reference
// the views are checked against.
namespace reference {

std::optional<std::vector<net::NodeId>> read_node_list(ByteReader& r) {
  const uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining() / 4) return std::nullopt;
  std::vector<net::NodeId> nodes;
  nodes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) nodes.push_back(r.u32());
  if (!r.ok()) return std::nullopt;
  return nodes;
}

std::optional<CollectFlood> decode_flood(ByteView data) {
  ByteReader r(data);
  CollectFlood f;
  f.flood = r.u32();
  f.ttl = r.u8();
  f.depth = r.u8();
  f.flags = r.u8();
  f.inner_type = r.u8();
  auto targets = read_node_list(r);
  if (!targets) return std::nullopt;
  f.targets = std::move(*targets);
  f.request = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return f;
}

bool serves(const CollectFlood& f, net::NodeId node) {
  return std::find(f.targets.begin(), f.targets.end(), kEveryone) !=
             f.targets.end() ||
         std::find(f.targets.begin(), f.targets.end(), node) !=
             f.targets.end();
}

std::optional<RelayReport> decode_report(RelayMsg kind, ByteView data) {
  if (kind != RelayMsg::kRelayReport && kind != RelayMsg::kAggregateReport) {
    return std::nullopt;
  }
  ByteReader r(data);
  RelayReport report;
  report.kind = kind;
  report.flood = r.u32();
  report.origin = r.u32();
  report.hops = r.u8();
  if (!report.aggregate()) report.inner_type = r.u8();
  report.queue = r.u8();
  auto path = read_node_list(r);
  if (!path) return std::nullopt;
  report.path = std::move(*path);
  report.response = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return report;
}

}  // namespace reference

/// What the differential decoders below saw accepted.
struct Accepted {
  size_t floods = 0;
  size_t reports = 0;
  size_t aggregates = 0;
  size_t wrapped_hops = 0;  // hops 255: the relay's bump wraps to 0
  size_t queue_max = 0;
  size_t empty_paths = 0;
};

/// FloodView::parse under differential test: it accepts exactly what the
/// reference accepts, with equal fields, and a forward patched from the
/// view equals the reference's decode, edit, serialize and frame.
std::optional<Bytes> differential_flood(ByteView in, Accepted& seen) {
  const auto ref = reference::decode_flood(in);
  const auto view = FloodView::parse(in);
  if (view.has_value() != ref.has_value()) {
    ADD_FAILURE() << "the flood view and the reference disagree on "
                  << to_hex(in);
    return std::nullopt;
  }
  if (!ref) return std::nullopt;
  ++seen.floods;
  EXPECT_EQ(view->flood, ref->flood);
  EXPECT_EQ(view->ttl, ref->ttl);
  EXPECT_EQ(view->depth, ref->depth);
  EXPECT_EQ(view->flags, ref->flags);
  EXPECT_EQ(view->inner_type, ref->inner_type);
  EXPECT_EQ(view->targets.to_vector(), ref->targets);
  EXPECT_TRUE(equal(view->request, ref->request));
  for (const net::NodeId node : {0u, 3u, 5u}) {
    EXPECT_EQ(view->serves(node), reference::serves(*ref, node));
  }
  // A relay node's own edit (ttl down one, depth up one, saturating),
  // then both byte extremes.
  const std::pair<uint8_t, uint8_t> edits[] = {
      {static_cast<uint8_t>(ref->ttl - 1),
       static_cast<uint8_t>(std::min<uint32_t>(ref->depth, 254) + 1)},
      {0, 255},
      {255, 0}};
  for (const auto& [ttl, depth] : edits) {
    CollectFlood next = *ref;
    next.ttl = ttl;
    next.depth = depth;
    EXPECT_EQ(view->forward_frame(ttl, depth),
              frame_relay(RelayMsg::kCollectFlood, next.serialize()));
  }
  return ref->serialize();
}

/// ReportView::parse under differential test: it accepts exactly what the
/// reference accepts, with equal fields; the frame patched from the view
/// equals the reference's decode, edit, serialize and frame at every
/// occupancy; and so does the corrupt relay's truncated frame, which
/// neither parser accepts.
std::optional<Bytes> differential_report(RelayMsg kind, ByteView in,
                                         Accepted& seen) {
  const auto ref = reference::decode_report(kind, in);
  const auto view = ReportView::parse(kind, in);
  if (view.has_value() != ref.has_value()) {
    ADD_FAILURE() << "the report view and the reference disagree on "
                  << to_hex(in);
    return std::nullopt;
  }
  if (!ref) return std::nullopt;
  ++seen.reports;
  seen.aggregates += ref->aggregate() ? 1 : 0;
  seen.wrapped_hops += ref->hops == 255 ? 1 : 0;
  seen.queue_max += ref->queue == 255 ? 1 : 0;
  seen.empty_paths += ref->path.empty() ? 1 : 0;
  EXPECT_EQ(view->kind, ref->kind);
  EXPECT_EQ(view->aggregate(), ref->aggregate());
  EXPECT_EQ(view->flood, ref->flood);
  EXPECT_EQ(view->origin, ref->origin);
  EXPECT_EQ(view->hops, ref->hops);
  EXPECT_EQ(view->inner_type, ref->inner_type);
  EXPECT_EQ(view->queue, ref->queue);
  EXPECT_EQ(view->path.to_vector(), ref->path);
  EXPECT_TRUE(equal(view->response, ref->response));

  constexpr net::NodeId kSelf = 0xA1B2C3D4u;
  RelayReport next = *ref;
  ++next.hops;
  next.path.push_back(kSelf);
  for (const uint8_t occupancy : {0, 1, 128, 255}) {
    RelayReport stamped = next;
    stamped.queue = std::max(stamped.queue, occupancy);
    EXPECT_EQ(view->relay_frame(kSelf, stamped.queue), stamped.frame());
  }
  Bytes scribbled = view->relay_frame(kSelf, view->queue);
  scribbled.resize(scribbled.size() - scribbled.size() / 3);
  Bytes want = next.frame();
  want.resize(want.size() - want.size() / 3);
  EXPECT_EQ(scribbled, want);
  const ByteView cut = ByteView(scribbled).subspan(1);
  EXPECT_FALSE(ReportView::parse(kind, cut).has_value());
  EXPECT_FALSE(reference::decode_report(kind, cut).has_value());
  return ref->serialize();
}

// Decoder fuzz: seeded mutations of one valid input per overlay decoder.
// The flood and report decoders are the in-place views, differentially
// checked against the owned reference decoders above.
TEST(OverlayWire, SeededMutantsNeverCrashAndAcceptedOnesReserializeExactly) {
  using fuzz::reparse;
  Accepted seen;
  const auto report_of = [&seen](RelayMsg kind) -> fuzz::Reparse {
    return [kind, &seen](ByteView in) {
      return differential_report(kind, in, seen);
    };
  };
  const fuzz::Reparse flood_decoder = [&seen](ByteView in) {
    return differential_flood(in, seen);
  };
  const std::vector<fuzz::Reparse> decoders = {
      flood_decoder,
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
  CollectFlood everyone;
  everyone.flood = 9;
  everyone.ttl = 0;
  everyone.depth = 255;
  everyone.inner_type = 1;
  everyone.request = bytes_of("req");
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
  // The byte extremes a relay patches: the hop count about to wrap, a
  // saturated queue, and a path with nothing on it yet.
  RelayReport edge = report;
  edge.hops = 255;
  edge.queue = 255;
  edge.path.clear();
  RelayReport agg_edge = edge;
  agg_edge.kind = RelayMsg::kAggregateReport;
  agg_edge.inner_type = 0;
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

  // The seeds themselves, unmutated, each under its own decoder.
  EXPECT_TRUE(differential_flood(flood.serialize(), seen));
  EXPECT_TRUE(differential_flood(everyone.serialize(), seen));
  for (const RelayReport& r : {report, agg, edge, agg_edge}) {
    EXPECT_TRUE(differential_report(r.kind, r.serialize(), seen));
  }

  const fuzz::Tally tally = fuzz::mutate_and_reparse(
      {flood.serialize(), everyone.serialize(), report.serialize(),
       agg.serialize(), edge.serialize(), agg_edge.serialize(),
       scoped.serialize(), ScopedNak{8, 5}.serialize(), frame.serialize(),
       report.frame()},
      decoders);
  // Neither vacuous nor a decoder that accepts anything.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_LT(tally.accepted, tally.decoded);
  // Every edge a patching relay meets was reached, seeds and mutants.
  EXPECT_GT(seen.floods, 2u);
  EXPECT_GT(seen.reports, 4u);
  EXPECT_GT(seen.aggregates, 2u);
  EXPECT_GT(seen.wrapped_hops, 2u);
  EXPECT_GT(seen.queue_max, 2u);
  EXPECT_GT(seen.empty_paths, 2u);
}

TEST(Overlay, FullyConnectedSwarmAllAttested) {
  OverlayRig rig(6);  // no link filter: everyone hears everyone
  rig.start_and_run(Duration::hours(1));

  const auto result = rig.run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports, 6u);
  for (size_t id = 0; id < 6; ++id) {
    EXPECT_TRUE(result.attested[id]) << "device " << id;
    EXPECT_TRUE(result.healthy[id]) << "device " << id;
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

  const auto result = rig.run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports, 4u)
      << "all devices reachable through multi-hop relay";
  EXPECT_GT(rig.total(&RelayNode::Stats::reports_relayed), 0u)
      << "inner devices must have relayed reports";

  // The transport's histogram sees the depth: device 3's report crossed
  // three relays.
  const auto& hops = rig.transport->hop_histogram();
  ASSERT_GE(hops.size(), 4u);
  EXPECT_EQ(hops[3], 1u);
}

TEST(Overlay, TtlBoundsFloodDepth) {
  RelayTransportConfig config;
  config.ttl = 1;
  OverlayRig rig(4, /*loss=*/0.0, config);
  line_filter(rig.network, rig.collector_node);
  rig.start_and_run(Duration::hours(1));

  // TTL 1: flood reaches device 0 (ttl 1) and device 1 (ttl 0, no
  // re-flood); 2 and 3 stay unreached and resolve through the timeout
  // path as unreachable sessions.
  const auto result = rig.run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports, 2u);
  EXPECT_FALSE(result.attested[2]);
  EXPECT_GT(rig.service->stats().unreachable_sessions, 0u);
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

  const auto result = rig.run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports, 3u);
  EXPECT_TRUE(result.attested[0]);
  EXPECT_FALSE(result.attested[4]);
}

TEST(Overlay, InfectedDeviceFlaggedThroughRelayPath) {
  OverlayRig rig(5);
  rig.start_and_run(Duration::minutes(15));
  // Persistent malware on device 3, then let a measurement catch it.
  rig.provers[3]->memory().write(rig.provers[3]->attested_region(), 7,
                                 bytes_of("EVIL"), false);
  rig.queue.run_until(rig.queue.now() + Duration::minutes(20));

  const auto result = rig.run_round(4, Duration::seconds(10));
  EXPECT_TRUE(result.attested[3]);
  EXPECT_FALSE(result.healthy[3]);
  EXPECT_TRUE(result.healthy[1]);
}

TEST(Overlay, DuplicateReportsCountedOnce) {
  // In a dense topology the same report can arrive over several paths;
  // the transport dedups per (flood, origin), so the collector counts
  // each device exactly once.
  OverlayRig rig(8);
  rig.start_and_run(Duration::hours(1));
  const auto result = rig.run_round(6, Duration::seconds(10));
  EXPECT_EQ(result.reports, 8u);
  EXPECT_EQ(result.attested.size(), 8u);
  const auto& stats = rig.transport->stats();
  EXPECT_EQ(stats.reports_received, 8u);
}

TEST(Overlay, RoundsAreIndependent) {
  OverlayRig rig(4);
  rig.start_and_run(Duration::hours(1));
  const auto r1 = rig.run_round(6, Duration::seconds(10));
  rig.queue.run_until(rig.queue.now() + Duration::minutes(30));
  const auto r2 = rig.run_round(6, Duration::seconds(10));
  EXPECT_EQ(r1.reports, 4u);
  EXPECT_EQ(r2.reports, 4u);
}

TEST(Overlay, LossyNetworkDegradesGracefully) {
  OverlayRig rig(6, /*loss=*/0.2);
  rig.start_and_run(Duration::hours(1));
  const auto result = rig.run_round(6, Duration::seconds(10));
  // Dense flooding provides path diversity, and the service's retries
  // (each a fresh flood) re-ask anyone whose report was lost.
  EXPECT_GE(result.reports, 3u);
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
  EXPECT_EQ(rig.transport->stats().malformed_frames, 2u);
  EXPECT_EQ(rig.nodes[0]->stats().requests_served, 0u)
      << "truncated floods must not reach the prover";

  // The overlay still works afterwards.
  const auto result = rig.run_round(2, Duration::seconds(10));
  EXPECT_EQ(result.reports, 2u);
}

TEST(Overlay, BoundedRelayQueueDropsUnderConvergence) {
  // Star: collector -- hub(0) -- {1..5}. Every leaf report converges on
  // the hub within one latency, so a depth-2 store-and-forward buffer
  // must drop; the default depth in a second rig must not.
  const int no_retries = 0;  // no re-asks: observe the raw first flood
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

  OverlayRig tight(6, 0.0, {}, node_config, no_retries);
  star(tight.network, tight.collector_node);
  tight.start_and_run(Duration::hours(1));
  const auto r1 = tight.run_round(6, Duration::seconds(30));
  EXPECT_GT(tight.nodes[0]->stats().reports_dropped, 0u);
  EXPECT_LT(r1.reports, 6u);
  EXPECT_GE(r1.reports, 1u);

  RelayNodeConfig roomy = node_config;
  roomy.queue_depth = 16;
  OverlayRig wide(6, 0.0, {}, roomy, no_retries);
  star(wide.network, wide.collector_node);
  wide.start_and_run(Duration::hours(1));
  const auto r2 = wide.run_round(6, Duration::seconds(30));
  EXPECT_EQ(wide.total(&RelayNode::Stats::reports_dropped), 0u);
  EXPECT_EQ(r2.reports, 6u);
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
  const auto result = rig.run_round(6, Duration::seconds(10));

  EXPECT_TRUE(result.attested[2])
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
  RelayTransportConfig config;
  config.scoped_retries = true;
  OverlayRig rig(4, /*loss=*/0.0, config);
  line_filter(rig.network, rig.collector_node);
  rig.start_and_run(Duration::hours(1));

  const auto round = rig.run_round(6, Duration::seconds(10));
  ASSERT_EQ(round.reports, 4u);
  RelayTransport& transport = *rig.transport;

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
  RelayTransportConfig config;
  config.scoped_retries = true;
  OverlayRig rig(4, /*loss=*/0.0, config);
  line_filter(rig.network, rig.collector_node);
  rig.start_and_run(Duration::hours(1));

  rig.run_round(6, Duration::seconds(10));
  RelayTransport& transport = *rig.transport;
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
  RelayTransportConfig config;
  config.scoped_retries = true;
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

  rig.run_round(6, Duration::seconds(10));
  RelayTransport& transport = *rig.transport;
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

// First-sight flood dedup: an id up to 65,536 below the highest id seen
// counts once, in or out of order; one below that is an ancient echo.
// Checked against the std::set the node used to keep: the edges first
// (also right after ids fall out of the window), then a seeded stream of
// nearly ascending ids across many windows.
TEST(Overlay, FloodDedupCountsEachIdInTheWindowOnce) {
  OverlayRig rig(1);
  const RelayNode& node = *rig.nodes[0];
  const auto first_sight = [&](uint32_t id) {
    CollectFlood flood;
    flood.flood = id;
    flood.ttl = 1;             // a first sight re-floods (to nobody)
    flood.targets = {12345};   // and serves nothing
    const uint64_t before = node.stats().floods_forwarded;
    rig.network.send(rig.collector_node, 0,
                     frame_relay(RelayMsg::kCollectFlood, flood.serialize()));
    rig.queue.run_until(rig.queue.now() + Duration::millis(10));
    return node.stats().floods_forwarded > before;
  };
  constexpr uint32_t kWindow = 65'536;
  std::set<uint32_t> seen;
  uint32_t watermark = 0;
  const auto reference = [&](uint32_t id) {
    if (id + kWindow < watermark) return false;
    if (!seen.insert(id).second) return false;
    if (id > watermark) {
      watermark = id;
      while (*seen.begin() + kWindow < watermark) seen.erase(seen.begin());
    }
    return true;
  };
  const auto check = [&](uint32_t id, bool want, const char* what) {
    ASSERT_EQ(reference(id), want) << what;
    ASSERT_EQ(first_sight(id), want) << what << ", id " << id;
  };
  check(100'000, true, "first sight");
  check(100'000, false, "duplicate");
  check(99'990, true, "out of order, inside the window");
  check(99'990, false, "counted once");
  check(100'000 - kWindow, true, "the window's edge");
  check(100'000 - kWindow - 1, false, "ancient echo");
  check(100'000 - kWindow, false, "the edge, counted once");
  // Three ids fall out of the window; 100,000 is its new edge.
  check(100'000 + kWindow, true, "a jump");
  check(100'000, false, "the new edge, still a duplicate");
  check(99'990, false, "fell out of the window");
  check(100'001, true, "inside the window, never seen");

  sim::Rng rng(31);
  uint32_t next = 100'001 + kWindow;
  size_t fresh = 0;
  for (int i = 0; i < 20'000; ++i) {
    uint32_t id;
    switch (rng.next_below(16)) {
      case 0:  // recent: a duplicate or an out-of-order first sight
        id = watermark - static_cast<uint32_t>(rng.next_below(64));
        break;
      case 1:  // around the window's lower edge
        id = watermark - kWindow - 1 + static_cast<uint32_t>(rng.next_below(3));
        break;
      case 2:  // now and then a jump
        next += static_cast<uint32_t>(rng.next_below(40'000));
        id = next++;
        break;
      default:
        next += static_cast<uint32_t>(rng.next_below(3));
        id = next++;
        break;
    }
    const bool want = reference(id);
    ASSERT_EQ(first_sight(id), want) << "frame " << i << ", id " << id;
    fresh += want;
  }
  EXPECT_GT(watermark, 100'000 + 10 * kWindow);
  EXPECT_GT(fresh, 10'000u);
  EXPECT_LT(fresh, 20'000u);
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

  const auto r1 = rig.run_round(6, Duration::seconds(10));
  EXPECT_GE(r1.reports, 1u);
  EXPECT_LE(r1.reports, 12u);
  // Device 0 is the collector's co-located uplink: always reachable.
  EXPECT_TRUE(r1.attested[0]);
}

}  // namespace
}  // namespace erasmus::overlay
