// Tests for hierarchical collection (src/aggregate/ + its overlay and
// service wiring): aggregate frame serde and authentication, the head's
// hold-and-combine judgment, cluster-head election, end-to-end cluster
// aggregation through the RelayTransport/AttestationService stack,
// demand fetch of raw evidence on a cleared bit, dark-head recovery
// accounting, and the sharded runner's thread-count byte-identity with
// aggregation on.
#include <gtest/gtest.h>

#include <sstream>

#include "aggregate/combine.h"
#include "aggregate/election.h"
#include "attest/protocol.h"
#include "attest/service.h"
#include "crypto/hkdf.h"
#include "overlay/relay_node.h"
#include "overlay/relay_transport.h"
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus {
namespace {

using aggregate::AggregateFrame;
using aggregate::Combiner;
using aggregate::ElectionMode;
using aggregate::ElectionPolicy;
using sim::Duration;
using sim::Time;

constexpr crypto::HashAlgo kHash = crypto::HashAlgo::kSha256;
constexpr crypto::MacAlgo kMac = crypto::MacAlgo::kHmacSha256;
constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

Bytes device_key(uint32_t id) {
  Bytes salt(4);
  salt[0] = static_cast<uint8_t>(id);
  return crypto::hkdf(bytes_of("aggregate-test-master"), salt,
                      bytes_of("erasmus/device-key"), 32);
}

/// A CollectResponse whose every measurement carries `digest` -- what a
/// healthy member of a uniform fleet reports.
Bytes response_with_digest(const Bytes& digest, uint64_t t = 7) {
  attest::Measurement m;
  m.timestamp = t;
  m.digest = digest;
  m.mac = Bytes(32, 0xab);  // heads never check member MACs
  attest::CollectResponse resp;
  resp.measurements = {m};
  return resp.serialize();
}

// --- Frame serde and authentication ------------------------------------------

TEST(AggregateFrame, RoundTripPreservesEveryField) {
  AggregateFrame frame;
  frame.flood = 99;
  frame.head = 4;
  frame.members = {2, 7, 11};
  frame.bitmap = {0x05};  // members 2 and 11 healthy, 7 cleared
  frame.root = crypto::Hash::digest(kHash, bytes_of("root"));
  frame.raw_bytes = 1234;
  frame.mac = Bytes(32, 0xcd);

  const auto f = AggregateFrame::deserialize(frame.serialize());
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->flood, 99u);
  EXPECT_EQ(f->head, 4u);
  EXPECT_EQ(f->members, (std::vector<net::NodeId>{2, 7, 11}));
  EXPECT_EQ(f->bitmap, frame.bitmap);
  EXPECT_EQ(f->root, frame.root);
  EXPECT_EQ(f->raw_bytes, 1234u);
  EXPECT_EQ(f->mac, frame.mac);
  EXPECT_TRUE(f->healthy(0));
  EXPECT_FALSE(f->healthy(1));
  EXPECT_TRUE(f->healthy(2));
  EXPECT_FALSE(f->healthy(3)) << "out-of-range bits read as cleared";
}

TEST(AggregateFrame, MalformedFramesRejected) {
  AggregateFrame frame;
  frame.flood = 1;
  frame.head = 9;
  frame.members = {3, 5};
  frame.bitmap = {0x03};
  frame.root = Bytes(32, 0x11);
  frame.raw_bytes = 64;
  frame.mac = Bytes(32, 0x22);
  const Bytes good = frame.serialize();
  ASSERT_TRUE(AggregateFrame::deserialize(good).has_value());

  // Every truncation must be rejected, not read past the end.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(
        AggregateFrame::deserialize(ByteView(good.data(), cut)).has_value())
        << "accepted a " << cut << "-byte prefix";
  }
  // Trailing garbage is not canonical either.
  Bytes padded = good;
  padded.push_back(0x00);
  EXPECT_FALSE(AggregateFrame::deserialize(padded).has_value());

  // Non-canonical member lists make bitmap bits ambiguous: rejected.
  AggregateFrame unsorted = frame;
  unsorted.members = {5, 3};
  EXPECT_FALSE(AggregateFrame::deserialize(unsorted.serialize()).has_value());
  AggregateFrame dup = frame;
  dup.members = {3, 3};
  EXPECT_FALSE(AggregateFrame::deserialize(dup.serialize()).has_value());

  // Bitmap length must match the member count exactly.
  AggregateFrame wide = frame;
  wide.bitmap = {0x03, 0x00};
  EXPECT_FALSE(AggregateFrame::deserialize(wide.serialize()).has_value());
}

TEST(AggregateFrame, MacCoversEveryFieldButItself) {
  const Bytes key = device_key(4);
  AggregateFrame frame;
  frame.flood = 5;
  frame.head = 4;
  frame.members = {8, 9};
  frame.bitmap = {0x03};
  frame.root = Bytes(32, 0x44);
  frame.raw_bytes = 200;
  frame.mac = crypto::Mac::compute(kMac, key, aggregate_mac_input(frame));
  EXPECT_TRUE(verify_aggregate(frame, kMac, key));

  AggregateFrame flipped = frame;
  flipped.bitmap[0] ^= 0x02;  // whitewash attempt: set a cleared bit
  EXPECT_FALSE(verify_aggregate(flipped, kMac, key));

  AggregateFrame reroot = frame;
  reroot.root[0] ^= 0x01;
  EXPECT_FALSE(verify_aggregate(reroot, kMac, key));

  EXPECT_FALSE(verify_aggregate(frame, kMac, device_key(5)))
      << "an aggregate must only verify under its head's key";
}

// --- Hold-and-combine judgment -----------------------------------------------

TEST(Combiner, TamperedChildFlipsExactlyItsBit) {
  const Bytes reference = crypto::Hash::digest(kHash, bytes_of("golden"));
  const Bytes evil = crypto::Hash::digest(kHash, bytes_of("IMPLANT"));

  Combiner combiner(kHash, reference);
  const Bytes r5 = response_with_digest(reference);
  const Bytes r9 = response_with_digest(evil);
  const Bytes r12 = response_with_digest(reference);
  // Absorb out of member order: build() must still emit canonical form.
  combiner.absorb(12, r12);
  combiner.absorb(5, r5);
  combiner.absorb(9, r9);
  EXPECT_EQ(combiner.members(), 3u);
  EXPECT_EQ(combiner.raw_bytes(), r5.size() + r9.size() + r12.size());

  const AggregateFrame frame = combiner.build(/*flood=*/3, /*head=*/1);
  EXPECT_EQ(frame.members, (std::vector<net::NodeId>{5, 9, 12}));
  EXPECT_TRUE(frame.healthy(0));
  EXPECT_FALSE(frame.healthy(1)) << "the tampered member's bit must clear";
  EXPECT_TRUE(frame.healthy(2));

  // The root commits to the raw evidence in member order: recomputable
  // by a verifier auditing demand-fetched evidence.
  const Bytes expect_root = aggregate::hash_tree_root(
      kHash, {aggregate::evidence_leaf(kHash, 5, r5),
              aggregate::evidence_leaf(kHash, 9, r9),
              aggregate::evidence_leaf(kHash, 12, r12)});
  EXPECT_EQ(frame.root, expect_root);
}

TEST(Combiner, JudgmentEdgeCases) {
  const Bytes reference = crypto::Hash::digest(kHash, bytes_of("golden"));

  // Duplicate origins keep the first evidence (first report wins, like
  // the transport's dedup).
  Combiner dedup(kHash, reference);
  dedup.absorb(4, response_with_digest(reference));
  dedup.absorb(4, response_with_digest(Bytes(32, 0xee)));
  EXPECT_EQ(dedup.members(), 1u);
  EXPECT_TRUE(dedup.build(1, 0).healthy(0));

  // Unparsable evidence can never earn a healthy bit.
  Combiner junk(kHash, reference);
  junk.absorb(6, bytes_of("not a CollectResponse"));
  EXPECT_FALSE(junk.build(1, 0).healthy(0));

  // An empty response vouches for nothing.
  Combiner empty(kHash, reference);
  empty.absorb(6, attest::CollectResponse{}.serialize());
  EXPECT_FALSE(empty.build(1, 0).healthy(0));

  // No reference digest (head never measured) -> judge everyone
  // unhealthy; they fall back to the raw demand-fetch path.
  Combiner blind(kHash, Bytes{});
  blind.absorb(6, response_with_digest(reference));
  EXPECT_FALSE(blind.build(1, 0).healthy(0));
}

TEST(HashTree, RootShapes) {
  const Bytes a = crypto::Hash::digest(kHash, bytes_of("a"));
  const Bytes b = crypto::Hash::digest(kHash, bytes_of("b"));
  const Bytes c = crypto::Hash::digest(kHash, bytes_of("c"));

  EXPECT_EQ(aggregate::hash_tree_root(kHash, {}), Bytes(32, 0));
  EXPECT_EQ(aggregate::hash_tree_root(kHash, {a}), a);
  EXPECT_EQ(aggregate::hash_tree_root(kHash, {a, b}),
            crypto::Hash::digest(kHash, concat(a, b)));
  // Odd tail promoted unchanged: root(a,b,c) = H(H(a||b) || c).
  EXPECT_EQ(aggregate::hash_tree_root(kHash, {a, b, c}),
            crypto::Hash::digest(
                kHash, concat(crypto::Hash::digest(kHash, concat(a, b)), c)));
}

// --- Election ----------------------------------------------------------------

TEST(Election, DepthBandHeadsEveryStrideDepths) {
  const ElectionPolicy policy{ElectionMode::kDepthBand, 2};
  EXPECT_FALSE(aggregate::is_head(policy, 7, 0))
      << "depth 0 is the verifier's side of the tree";
  EXPECT_FALSE(aggregate::is_head(policy, 7, 1));
  EXPECT_TRUE(aggregate::is_head(policy, 7, 2));
  EXPECT_FALSE(aggregate::is_head(policy, 7, 3));
  EXPECT_TRUE(aggregate::is_head(policy, 7, 4));
}

TEST(Election, PlannedHeadsByIdStride) {
  const ElectionPolicy policy{ElectionMode::kPlanned, 3};
  EXPECT_TRUE(aggregate::is_head(policy, 0, 1));
  EXPECT_FALSE(aggregate::is_head(policy, 1, 2));
  EXPECT_TRUE(aggregate::is_head(policy, 3, 5));
  EXPECT_TRUE(aggregate::is_head(policy, 6, 1));
}

TEST(Election, ZeroStrideClampsToOne) {
  EXPECT_TRUE(
      aggregate::is_head({ElectionMode::kDepthBand, 0}, 9, 1));
  EXPECT_TRUE(aggregate::is_head({ElectionMode::kPlanned, 0}, 9, 1));
}

// --- Wire envelope -----------------------------------------------------------

TEST(AggregateWire, EnvelopeAndFloodFieldsRoundTrip) {
  // An aggregate rides the one uplink envelope under its own tag, with
  // the head as origin and the frame as payload.
  overlay::RelayReport env;
  env.kind = overlay::RelayMsg::kAggregateReport;
  env.flood = 17;
  env.origin = 3;
  env.hops = 2;
  env.queue = 40;
  env.path = {3, 8, 1};
  env.response = bytes_of("frame bytes");
  const Bytes framed = env.frame();
  ASSERT_EQ(framed[0], 0x24) << "the aggregate tag is unchanged";
  const auto unframed = overlay::unframe_relay(framed);
  ASSERT_TRUE(unframed.has_value());
  const auto e =
      overlay::RelayReport::deserialize(unframed->first, unframed->second);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->aggregate());
  EXPECT_EQ(e->flood, 17u);
  EXPECT_EQ(e->origin, 3u);
  EXPECT_EQ(e->hops, 2u);
  EXPECT_EQ(e->queue, 40u);
  EXPECT_EQ(e->path, (std::vector<net::NodeId>{3, 8, 1}));
  EXPECT_EQ(e->response, bytes_of("frame bytes"));

  const Bytes full = env.serialize();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(overlay::RelayReport::deserialize(
                     overlay::RelayMsg::kAggregateReport,
                     ByteView(full.data(), cut)).has_value())
        << "accepted a " << cut << "-byte prefix";
  }

  // The flood frame carries the election inputs: depth and flags survive
  // the wire.
  overlay::CollectFlood flood;
  flood.flood = 5;
  flood.depth = 3;
  flood.flags = overlay::kFloodAggregate;
  flood.request = bytes_of("req");
  const auto f = overlay::CollectFlood::deserialize(flood.serialize());
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->depth, 3u);
  EXPECT_EQ(f->flags, overlay::kFloodAggregate);
}

// --- End to end through the transport + service ------------------------------

// A packet-level cluster rig: n devices with relay nodes, the verifier's
// RelayTransport + AttestationService, and the runner's aggregate
// delivery wiring (authenticate, complete healthy bits, demand-fetch
// cleared ones) reproduced verbatim.
struct AggRig {
  /// Roomy metered batteries: dark never fires on its own; a test kills a
  /// node by charging its full capacity in one go.
  static constexpr uint64_t kBatteryNj = 1'000'000'000'000ull;

  sim::EventQueue queue;
  net::Network network;
  std::vector<energy::DeviceMeter> meters;  // before nodes: outlives them
  std::vector<std::unique_ptr<hw::SmartPlusArch>> archs;
  std::vector<std::unique_ptr<attest::Prover>> provers;
  std::vector<std::unique_ptr<overlay::RelayNode>> nodes;
  attest::DeviceDirectory directory;
  net::NodeId verifier_node = 0;
  std::unique_ptr<overlay::RelayTransport> transport;
  std::unique_ptr<attest::AttestationService> service;
  std::vector<attest::AttestationService::SessionOutcome> outcomes;
  std::vector<AggregateFrame> frames;  // accepted + authenticated
  uint64_t auth_failures = 0;

  explicit AggRig(size_t n, overlay::RelayNodeConfig node_config = {},
                  attest::ServiceConfig sc = {}, bool metered = false)
      : network(queue, Duration::millis(2), /*loss=*/0.0, /*seed=*/7) {
    if (metered) {
      meters.assign(n, energy::DeviceMeter({}, kBatteryNj));
    }
    for (uint32_t id = 0; id < n; ++id) {
      if (metered) node_config.meter = &meters[id];
      auto arch = std::make_unique<hw::SmartPlusArch>(
          device_key(id), 4096, 1024, 16 * kRecordBytes);
      auto prover = std::make_unique<attest::Prover>(
          queue, *arch, arch->app_region(), arch->store_region(),
          std::make_unique<attest::RegularScheduler>(Duration::minutes(10)),
          attest::ProverConfig{});
      const net::NodeId node = network.add_node({});
      nodes.push_back(std::make_unique<overlay::RelayNode>(
          queue, network, node, *prover, node_config));
      attest::DeviceRecord record;
      record.key = device_key(id);
      record.set_golden(crypto::Hash::digest(
          kHash, arch->memory().view(arch->app_region(), true)));
      directory.add(node, std::move(record));
      archs.push_back(std::move(arch));
      provers.push_back(std::move(prover));
    }
    verifier_node = network.add_node({});
    overlay::RelayTransportConfig tc;
    tc.aggregate = true;
    transport = std::make_unique<overlay::RelayTransport>(
        network, verifier_node, n + 1, tc);
    service = std::make_unique<attest::AttestationService>(
        queue, *transport, directory, sc);
    service->set_observer(
        [this](const attest::AttestationService::SessionOutcome& o) {
          outcomes.push_back(o);
        });
    // The runner's delivery path: authenticate under the head's directory
    // key, trust set bits, demand raw evidence for cleared ones.
    transport->set_aggregate_receiver(
        [this](const AggregateFrame& frame, uint8_t) {
          const attest::DeviceRecord& rec =
              directory.record(static_cast<attest::DeviceId>(frame.head));
          if (!verify_aggregate(frame, rec.algo, rec.key)) {
            ++auth_failures;
            return;
          }
          frames.push_back(frame);
          for (size_t i = 0; i < frame.members.size(); ++i) {
            if (frame.healthy(i)) {
              service->complete_aggregated(frame.members[i]);
            } else {
              service->demand_fetch(frame.members[i]);
            }
          }
        });
  }

  void start_and_run(Duration d) {
    for (auto& p : provers) p->start();
    queue.run_until(queue.now() + d);
  }

  /// One full collection round over every device, run to quiescence.
  void collect_all(size_t n) {
    std::vector<attest::DeviceId> all;
    for (attest::DeviceId id = 0; id < n; ++id) all.push_back(id);
    service->collect_now(all);
    queue.run_until(queue.now() + Duration::seconds(15));
  }

  const attest::AttestationService::SessionOutcome* outcome_for(
      attest::DeviceId device) const {
    for (const auto& o : outcomes) {
      if (o.device == device) return &o;
    }
    return nullptr;
  }
};

// verifier -- 0 -- 1 -- {2, 3}: node 1 sits at flood depth 2, so with
// depth-band stride 2 it heads the cluster whose members' reports flow
// through it.
void tree_filter(net::Network& network, net::NodeId v) {
  network.set_link_filter([v](net::NodeId a, net::NodeId b) {
    if (a > b) std::swap(a, b);
    if (b == v) return a == 0;
    if (a == 0) return b == 1;
    return a == 1 && (b == 2 || b == 3);
  });
}

TEST(AggregateEndToEnd, HeadAbsorbsClusterAndVerifierTrustsTheBits) {
  overlay::RelayNodeConfig nc;
  nc.aggregation.enabled = true;
  nc.aggregation.election = {ElectionMode::kDepthBand, 2};
  nc.aggregation.window = Duration::millis(200);
  AggRig rig(4, nc);
  tree_filter(rig.network, rig.verifier_node);
  rig.start_and_run(Duration::minutes(11));  // heads need a measurement

  rig.collect_all(4);

  // Every device attested; 2 and 3 through the head's healthy bits.
  ASSERT_EQ(rig.outcomes.size(), 4u);
  for (const auto& o : rig.outcomes) {
    EXPECT_TRUE(o.reachable) << "device " << o.device;
    EXPECT_TRUE(o.report.device_trustworthy()) << "device " << o.device;
  }
  EXPECT_FALSE(rig.outcome_for(0)->aggregated) << "depth-1 relays raw";
  EXPECT_FALSE(rig.outcome_for(1)->aggregated)
      << "a head never vouches for itself";
  EXPECT_TRUE(rig.outcome_for(2)->aggregated);
  EXPECT_TRUE(rig.outcome_for(3)->aggregated);

  const auto& head = rig.nodes[1]->stats();
  EXPECT_EQ(head.heads_elected, 1u);
  EXPECT_EQ(head.reports_absorbed, 2u);
  EXPECT_EQ(head.aggregates_built, 1u);

  ASSERT_EQ(rig.frames.size(), 1u);
  EXPECT_EQ(rig.frames[0].head, 1u);
  EXPECT_EQ(rig.frames[0].members, (std::vector<net::NodeId>{2, 3}));
  EXPECT_EQ(rig.auth_failures, 0u);

  const auto& ts = rig.transport->stats();
  EXPECT_EQ(ts.aggregates_received, 1u);
  EXPECT_EQ(ts.aggregate_members, 2u);
  EXPECT_GT(ts.aggregate_raw_bytes, ts.aggregate_wire_bytes)
      << "one frame must be smaller than the evidence it replaced";

  const auto& ss = rig.service->stats();
  EXPECT_EQ(ss.aggregated_sessions, 2u);
  EXPECT_EQ(ss.demand_fetches, 0u);
  EXPECT_EQ(ss.unreachable_sessions, 0u);
}

TEST(AggregateEndToEnd, ClearedBitDemandFetchesRawEvidenceAndFlags) {
  overlay::RelayNodeConfig nc;
  nc.aggregation.enabled = true;
  nc.aggregation.election = {ElectionMode::kDepthBand, 2};
  AggRig rig(4, nc);
  tree_filter(rig.network, rig.verifier_node);
  // Persistent malware on member 3 BEFORE its first measurement: its
  // digest diverges from the head's reference and from the golden.
  rig.provers[3]->memory().write(rig.provers[3]->attested_region(), 7,
                                 bytes_of("IMPLANT"), false);
  rig.start_and_run(Duration::minutes(11));

  rig.collect_all(4);

  // The head absorbed 3's report but cleared its bit...
  ASSERT_EQ(rig.frames.size(), 1u);
  const AggregateFrame& frame = rig.frames[0];
  ASSERT_EQ(frame.members, (std::vector<net::NodeId>{2, 3}));
  EXPECT_TRUE(frame.healthy(0));
  EXPECT_FALSE(frame.healthy(1));

  // ...which forced one demand fetch, and the raw evidence convicts.
  EXPECT_EQ(rig.service->stats().demand_fetches, 1u);
  EXPECT_EQ(rig.service->stats().aggregated_sessions, 1u);
  const auto* o3 = rig.outcome_for(3);
  ASSERT_NE(o3, nullptr);
  EXPECT_TRUE(o3->reachable);
  EXPECT_FALSE(o3->aggregated) << "a demand fetch yields raw evidence";
  EXPECT_TRUE(o3->report.infection_detected);
  EXPECT_TRUE(rig.outcome_for(2)->aggregated);
  EXPECT_TRUE(rig.outcome_for(2)->report.device_trustworthy());
}

TEST(AggregateEndToEnd, DarkHeadMembersRecoverThroughReelection) {
  // Diamond below the head band: verifier -- 0 -- {1, 2} -- 3. Both 1
  // and 2 sit at depth 2 and elect; 3's report flows through whichever
  // parent's flood arrived first (deterministically 1). Head 1 then dies
  // holding the cluster: 3's session must time out and the retry flood
  // rebuild the tree through the surviving head 2.
  overlay::RelayNodeConfig nc;
  nc.aggregation.enabled = true;
  nc.aggregation.election = {ElectionMode::kDepthBand, 2};
  nc.aggregation.window = Duration::millis(200);
  attest::ServiceConfig sc;
  sc.response_timeout = Duration::seconds(1);
  AggRig rig(4, nc, sc, /*metered=*/true);
  const net::NodeId v = rig.verifier_node;
  rig.network.set_link_filter([v](net::NodeId a, net::NodeId b) {
    if (a > b) std::swap(a, b);
    if (b == v) return a == 0;
    if (a == 0) return b == 1 || b == 2;
    return b == 3 && (a == 1 || a == 2);
  });
  rig.start_and_run(Duration::minutes(11));

  std::vector<attest::DeviceId> all{0, 1, 2, 3};
  rig.service->collect_now(all);
  // 3's report is absorbed by ~10 ms; the window flushes at ~205 ms. Kill
  // head 1 in between: the held evidence must never reach the wire.
  rig.queue.schedule_after(Duration::millis(100), [&rig] {
    rig.meters[1].charge_cpu(rig.meters[1].capacity_nj(), rig.queue.now());
  });
  rig.queue.run_until(rig.queue.now() + Duration::seconds(15));

  EXPECT_TRUE(rig.meters[1].dark());
  EXPECT_EQ(rig.nodes[1]->stats().heads_elected, 1u);
  EXPECT_EQ(rig.nodes[1]->stats().aggregates_built, 0u)
      << "the battery died before the flush";
  EXPECT_EQ(rig.nodes[1]->stats().aggregates_dark_purged, 1u)
      << "held cluster evidence dies under its own counter";

  // Recovery: the retry flood (single target, never aggregate-eligible)
  // re-treed around the corpse and 3's raw report climbed through 2.
  ASSERT_EQ(rig.outcomes.size(), 4u);
  const auto* o3 = rig.outcome_for(3);
  ASSERT_NE(o3, nullptr);
  EXPECT_TRUE(o3->reachable) << "member must recover via re-election";
  EXPECT_FALSE(o3->aggregated);
  EXPECT_GT(o3->attempts, 1) << "recovery rode the retry path";
  EXPECT_TRUE(o3->report.device_trustworthy());
  EXPECT_GT(rig.service->stats().retries, 0u);
  EXPECT_GT(rig.nodes[2]->stats().reports_relayed, 0u)
      << "the surviving branch carried the raw evidence";
  EXPECT_EQ(rig.service->stats().unreachable_sessions, 0u);
}

// --- Dark-head purge accounting (regression) ---------------------------------

TEST(AggregateDark, QueuedAggregatePurgedUnderItsOwnCounter) {
  // A head that browns out with an aggregate frame already in its
  // store-and-forward queue must account it under aggregates_dark_purged
  // (election-time recovery), NOT under dropped_dark.
  sim::EventQueue queue;
  net::Network network(queue, Duration::millis(2), 0.0, 7);

  auto arch = std::make_unique<hw::SmartPlusArch>(device_key(1), 4096, 1024,
                                                  16 * kRecordBytes);
  attest::Prover prover(queue, *arch, arch->app_region(),
                        arch->store_region(),
                        std::make_unique<attest::RegularScheduler>(
                            Duration::minutes(10)),
                        attest::ProverConfig{});

  const net::NodeId sender = network.add_node({});  // plays the verifier
  const net::NodeId head = network.add_node({});
  const net::NodeId child = network.add_node({});
  ASSERT_EQ(head, 1u);

  energy::DeviceMeter meter({}, /*capacity_nj=*/1000);
  overlay::RelayNodeConfig nc;
  nc.meter = &meter;
  nc.aggregation.enabled = true;
  nc.aggregation.election = {ElectionMode::kDepthBand, 1};  // always head
  nc.aggregation.window = Duration::millis(20);
  // Long serialization: nothing leaves the queue before the lights go out.
  nc.forward_spacing = Duration::millis(500);
  overlay::RelayNode node(queue, network, head, prover, nc);

  size_t aggregates_heard = 0;
  network.set_handler(sender, [&](const net::Datagram& d) {
    const auto framed = overlay::unframe_relay(d.payload);
    if (framed && framed->first == overlay::RelayMsg::kAggregateReport) {
      ++aggregates_heard;
    }
  });

  prover.start();
  queue.run_until(queue.now() + Duration::minutes(11));  // one measurement

  // The round flood (aggregate-eligible, depth 0 -> head at depth 1).
  overlay::CollectFlood flood;
  flood.flood = 1;
  flood.ttl = 0;
  flood.flags = overlay::kFloodAggregate;
  flood.inner_type = static_cast<uint8_t>(attest::MsgType::kCollectRequest);
  flood.request = attest::CollectRequest{2}.serialize();
  network.send(sender, head,
               frame_relay(overlay::RelayMsg::kCollectFlood,
                           flood.serialize()));

  // A child report arrives inside the window and is absorbed.
  queue.schedule_after(Duration::millis(5), [&] {
    overlay::RelayReport report;
    report.flood = 1;
    report.origin = child;
    report.inner_type =
        static_cast<uint8_t>(attest::MsgType::kCollectResponse);
    report.path = {child};
    report.response = response_with_digest(Bytes(32, 0x55));
    network.send(child, head,
                 frame_relay(overlay::RelayMsg::kRelayReport,
                             report.serialize()));
  });

  // The window flushes at ~22 ms: the aggregate is built, MAC'd and
  // queued behind the head's own raw report. THEN the battery dies,
  // before the 500 ms forward spacing lets either frame out.
  queue.schedule_after(Duration::millis(100), [&] {
    meter.charge_cpu(meter.capacity_nj(), queue.now());
  });
  queue.run_until(queue.now() + Duration::seconds(2));

  const auto& stats = node.stats();
  EXPECT_EQ(stats.heads_elected, 1u);
  EXPECT_EQ(stats.reports_absorbed, 1u);
  EXPECT_EQ(stats.aggregates_built, 1u);
  EXPECT_EQ(stats.aggregates_dark_purged, 1u)
      << "the queued aggregate must die under its own counter";
  EXPECT_EQ(stats.dropped_dark, 1u)
      << "exactly the head's own raw report -- NOT the aggregate";
  EXPECT_EQ(aggregates_heard, 0u) << "nothing left the dark head";
}

TEST(AggregateDark, HeldCombinerPurgedWhenDarkBeforeFlush) {
  // Dark strikes INSIDE the window, before any frame was built: the held
  // evidence is purged at flush under aggregates_dark_purged.
  sim::EventQueue queue;
  net::Network network(queue, Duration::millis(2), 0.0, 7);
  auto arch = std::make_unique<hw::SmartPlusArch>(device_key(1), 4096, 1024,
                                                  16 * kRecordBytes);
  attest::Prover prover(queue, *arch, arch->app_region(),
                        arch->store_region(),
                        std::make_unique<attest::RegularScheduler>(
                            Duration::minutes(10)),
                        attest::ProverConfig{});
  const net::NodeId sender = network.add_node({});
  const net::NodeId head = network.add_node({});
  const net::NodeId child = network.add_node({});
  energy::DeviceMeter meter({}, /*capacity_nj=*/1000);
  overlay::RelayNodeConfig nc;
  nc.meter = &meter;
  nc.aggregation.enabled = true;
  nc.aggregation.election = {ElectionMode::kDepthBand, 1};
  nc.aggregation.window = Duration::millis(200);
  nc.forward_spacing = Duration::millis(500);
  overlay::RelayNode node(queue, network, head, prover, nc);

  prover.start();
  queue.run_until(queue.now() + Duration::minutes(11));

  overlay::CollectFlood flood;
  flood.flood = 1;
  flood.ttl = 0;
  flood.flags = overlay::kFloodAggregate;
  flood.inner_type = static_cast<uint8_t>(attest::MsgType::kCollectRequest);
  flood.request = attest::CollectRequest{2}.serialize();
  network.send(sender, head,
               frame_relay(overlay::RelayMsg::kCollectFlood,
                           flood.serialize()));
  queue.schedule_after(Duration::millis(5), [&] {
    overlay::RelayReport report;
    report.flood = 1;
    report.origin = child;
    report.inner_type =
        static_cast<uint8_t>(attest::MsgType::kCollectResponse);
    report.path = {child};
    report.response = response_with_digest(Bytes(32, 0x55));
    network.send(child, head,
                 frame_relay(overlay::RelayMsg::kRelayReport,
                             report.serialize()));
  });
  // Dead at 50 ms: absorbed evidence held, window open until 200 ms.
  queue.schedule_after(Duration::millis(50), [&] {
    meter.charge_cpu(meter.capacity_nj(), queue.now());
  });
  queue.run_until(queue.now() + Duration::seconds(2));

  const auto& stats = node.stats();
  EXPECT_EQ(stats.reports_absorbed, 1u);
  EXPECT_EQ(stats.aggregates_built, 0u);
  EXPECT_EQ(stats.aggregates_dark_purged, 1u)
      << "held evidence dies with the battery, under its own counter";
}

// --- Compromised relays on aggregates ----------------------------------------

TEST(AggregateRelay, CompromisedRelayDropsOrScribblesADeeperHeadsAggregate) {
  // Line verifier -- parent -- relay -- deep. The relay heads its cluster
  // (window open) when the deeper head's aggregate arrives. Honest, it
  // passes the aggregate on unchanged; compromised, it drops it (counted
  // as an attack, not absorbed) or scribbles it into the parent's
  // malformed_frames.
  enum class Mode { kHonest, kDrop, kCorrupt };
  for (const Mode mode : {Mode::kHonest, Mode::kDrop, Mode::kCorrupt}) {
    SCOPED_TRACE(static_cast<int>(mode));
    sim::EventQueue queue;
    net::Network network(queue, Duration::millis(2), 0.0, 7);
    std::vector<std::unique_ptr<hw::SmartPlusArch>> archs;
    std::vector<std::unique_ptr<attest::Prover>> provers;
    const auto prover_for = [&](uint32_t id) -> attest::Prover& {
      archs.push_back(std::make_unique<hw::SmartPlusArch>(
          device_key(id), 4096, 1024, 16 * kRecordBytes));
      hw::SmartPlusArch& arch = *archs.back();
      provers.push_back(std::make_unique<attest::Prover>(
          queue, arch, arch.app_region(), arch.store_region(),
          std::make_unique<attest::RegularScheduler>(Duration::minutes(10)),
          attest::ProverConfig{}));
      return *provers.back();
    };
    const net::NodeId verifier = network.add_node({});
    const net::NodeId parent = network.add_node({});
    const net::NodeId relay = network.add_node({});
    const net::NodeId deep = network.add_node({});
    network.set_link_filter([](net::NodeId a, net::NodeId b) {
      return (a > b ? a - b : b - a) == 1;
    });
    overlay::RelayNode parent_node(queue, network, parent, prover_for(parent));
    overlay::RelayNodeConfig nc;
    nc.aggregation.enabled = true;
    nc.aggregation.election = {ElectionMode::kDepthBand, 1};  // always head
    nc.compromise.drop_relayed = mode == Mode::kDrop;
    nc.compromise.corrupt_relayed = mode == Mode::kCorrupt;
    overlay::RelayNode relay_node(queue, network, relay, prover_for(relay),
                                  nc);
    std::vector<overlay::RelayReport> heard;  // aggregates at the verifier
    network.set_handler(verifier, [&](const net::Datagram& d) {
      const auto framed = overlay::unframe_relay(d.payload);
      if (!framed || framed->first != overlay::RelayMsg::kAggregateReport) {
        return;
      }
      const auto env =
          overlay::RelayReport::deserialize(framed->first, framed->second);
      ASSERT_TRUE(env.has_value());
      heard.push_back(*env);
    });
    for (auto& p : provers) p->start();
    queue.run_until(queue.now() + Duration::minutes(11));  // heads measure

    overlay::CollectFlood flood;
    flood.flood = 1;
    flood.ttl = 2;
    flood.flags = overlay::kFloodAggregate;
    flood.inner_type = static_cast<uint8_t>(attest::MsgType::kCollectRequest);
    flood.request = attest::CollectRequest{2}.serialize();
    network.send(verifier, parent,
                 frame_relay(overlay::RelayMsg::kCollectFlood,
                             flood.serialize()));
    overlay::RelayReport env;
    env.kind = overlay::RelayMsg::kAggregateReport;
    env.flood = 1;
    env.origin = deep;
    env.path = {deep};
    env.response = bytes_of("the deeper head's frame");
    queue.schedule_after(Duration::millis(20),
                         [&] { network.send(deep, relay, env.frame()); });
    queue.run_until(queue.now() + Duration::seconds(2));

    const auto& r = relay_node.stats();
    EXPECT_EQ(r.heads_elected, 1u);
    EXPECT_EQ(r.reports_absorbed, 0u) << "aggregates are never absorbed";
    EXPECT_EQ(r.aggregates_built, 0u);
    switch (mode) {
      case Mode::kHonest:
        EXPECT_EQ(r.aggregates_relayed, 1u);
        ASSERT_EQ(heard.size(), 1u);
        EXPECT_EQ(heard[0].origin, deep);
        EXPECT_EQ(heard[0].hops, 2u);
        EXPECT_EQ(heard[0].path,
                  (std::vector<net::NodeId>{deep, relay, parent}));
        EXPECT_EQ(heard[0].response, env.response) << "payload unchanged";
        break;
      case Mode::kDrop:
        EXPECT_EQ(r.dropped_adversarial, 1u);
        EXPECT_EQ(r.aggregates_relayed, 0u);
        EXPECT_EQ(parent_node.stats().malformed_frames, 0u);
        EXPECT_TRUE(heard.empty());
        break;
      case Mode::kCorrupt:
        EXPECT_EQ(r.corrupted_adversarial, 1u);
        EXPECT_EQ(r.aggregates_relayed, 1u) << "the scribble still burns "
                                               "the relay's queue slot";
        EXPECT_EQ(parent_node.stats().malformed_frames, 1u);
        EXPECT_TRUE(heard.empty());
        break;
    }
  }
}

// --- Sharded runner: byte-identity and the aggregate table -------------------

scenario::ShardedFleetConfig agg_fleet_config(size_t threads) {
  swarm::DeviceSpec base;
  base.tm = Duration::minutes(10);
  base.app_ram_bytes = 1024;
  base.store_slots = 16;

  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(24, /*key_seed=*/42, base);
  cfg.plan.mobility.field_size = 120.0;
  cfg.plan.mobility.radio_range = 50.0;
  cfg.plan.mobility.speed_min = 4.0;
  cfg.plan.mobility.speed_max = 9.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = threads;
  cfg.rounds = 4;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 4;
  cfg.backend = scenario::CollectionBackend::kOverlay;
  cfg.overlay.collect_deadline = Duration::seconds(25);
  cfg.overlay.aggregation.enabled = true;
  cfg.overlay.aggregation.election = {ElectionMode::kDepthBand, 2};
  return cfg;
}

std::string agg_run_to_json(scenario::ShardedFleetConfig cfg) {
  std::ostringstream out;
  scenario::JsonSink sink(out);
  sink.begin_run("aggregate-determinism");
  scenario::ShardedFleetRunner runner(cfg);
  runner.schedule_on_device(
      7, Time::zero() + Duration::minutes(35), [](attest::Prover& p) {
        p.memory().write(p.attested_region(), 16, bytes_of("IMPLANT"),
                         false);
      });
  runner.run(sink);
  sink.end_run();
  return out.str();
}

TEST(AggregateRunner, MetricsByteIdenticalAcross1_2_8Threads) {
  const std::string t1 = agg_run_to_json(agg_fleet_config(1));
  const std::string t2 = agg_run_to_json(agg_fleet_config(2));
  const std::string t8 = agg_run_to_json(agg_fleet_config(8));
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  EXPECT_NE(t1.find("\"aggregate\""), std::string::npos)
      << "aggregation must emit its per-round table";
  EXPECT_NE(t1.find("\"clusters\""), std::string::npos);
  EXPECT_NE(t1.find("\"compression\""), std::string::npos);
  EXPECT_NE(t1.find("\"flagged\": 1"), std::string::npos)
      << "the infected device must still be flagged with aggregation on";
}

TEST(AggregateRunner, ClustersActuallyFormAndCompress) {
  std::ostringstream out;
  scenario::JsonSink sink(out);
  sink.begin_run("aggregate");
  scenario::ShardedFleetRunner runner(agg_fleet_config(2));
  const auto rounds = runner.run(sink);
  sink.end_run();

  size_t collected = 0;
  for (const auto& r : rounds) collected += r.reachable;
  EXPECT_GT(collected, 0u);

  const auto totals = runner.overlay_totals();
  EXPECT_GT(totals.heads_elected, 0u) << "depth-band election must fire";
  EXPECT_GT(totals.aggregates_built, 0u);
  EXPECT_GT(totals.aggregates_received, 0u);
  const auto& ts = runner.service().stats();
  EXPECT_GT(ts.aggregated_sessions, 0u)
      << "healthy bits must close sessions";
  const auto& transport_stats = runner.overlay_totals();
  EXPECT_GE(transport_stats.reports_absorbed,
            ts.aggregated_sessions)
      << "every aggregated session rode an absorbed report";
}

}  // namespace
}  // namespace erasmus
