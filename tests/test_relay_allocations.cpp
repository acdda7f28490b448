// The overlay's cost per frame, counted: once a relay node's buffers are
// sized, a duplicate flood it hears allocates nothing, a report it relays
// allocates its one outgoing frame (the network's own per-transmission
// copies come after, at the send), and an originated report and a cluster
// head's MAC input are each written into one buffer. The counts are exact
// and machine-independent. This binary replaces the global operator new
// with a counting one.
#include <gtest/gtest.h>

#include "aggregate/frame.h"
#include "attest/prover.h"
#include "attest/schedule.h"
#include "counting_new.h"
#include "overlay/relay_node.h"

namespace erasmus::overlay {
namespace {

using erasmus::testing::allocations_in;
using sim::Duration;

constexpr uint32_t kFlood = 7;
const Duration kLatency = Duration::millis(2);

/// Three nodes on a fully connected radio: 0 stands for the verifier side,
/// 1 is the relay under test, 2 is a child whose frames it hears. Frames
/// land at the relay through an ordinary send, and deliver() runs the
/// queue up to exactly their arrival, so what it counts is the relay's
/// handler alone; its store-and-forward drain fires one forward spacing
/// later.
struct RelayRig {
  sim::EventQueue queue;
  net::Network network{queue, kLatency};
  hw::SmartPlusArch arch{Bytes(32, 0x42), 4096, 1024, 1024};
  attest::Prover prover{
      queue, arch, arch.app_region(), arch.store_region(),
      std::make_unique<attest::RegularScheduler>(Duration::minutes(10)),
      attest::ProverConfig{}};
  size_t uplinked = 0;  // frames heard by node 0
  std::unique_ptr<RelayNode> relay;

  explicit RelayRig(RelayNodeConfig config = {}) {
    network.add_node([this](const net::Datagram&) { ++uplinked; });
    const net::NodeId self = network.add_node({});
    network.add_node({});
    relay = std::make_unique<RelayNode>(queue, network, self, prover, config);
    // First sight from node 0: the route's parent. The flood targets node
    // 2 and has no ttl left, so the relay neither serves nor forwards it.
    network.send(0, 1, flood_frame());
    queue.run();
  }

  static Bytes flood_frame() {
    CollectFlood flood;
    flood.flood = kFlood;
    flood.ttl = 0;
    flood.targets = {2};
    flood.request = Bytes(16, 0x01);
    return frame_relay(RelayMsg::kCollectFlood, flood.serialize());
  }

  static Bytes report_frame() {
    RelayReport report;
    report.flood = kFlood;
    report.origin = 2;
    report.inner_type = 2;
    report.path = {2};
    report.response = Bytes(120, 0x33);
    return report.frame();
  }

  /// Heap allocations made while the relay handles `frame` from `src`.
  size_t deliver(net::NodeId src, Bytes frame) {
    network.send(src, 1, std::move(frame));
    const sim::Time arrival = queue.now() + kLatency;
    return allocations_in([&] { queue.run_until(arrival); });
  }
};

TEST(RelayAllocations, DuplicateFloodReceptionAllocatesNothing) {
  RelayRig rig;
  // A duplicate records its sender as an alternate uplink, once.
  rig.deliver(2, RelayRig::flood_frame());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.deliver(i % 2 == 0 ? 0 : 2, RelayRig::flood_frame()), 0u)
        << "duplicate " << i;
  }
  EXPECT_EQ(rig.relay->stats().floods_seen, 5u);
  EXPECT_EQ(rig.relay->stats().floods_forwarded, 0u);
  EXPECT_EQ(rig.relay->stats().malformed_frames, 0u);
}

TEST(RelayAllocations, RelayedReportAllocatesItsOneOutgoingFrame) {
  RelayRig rig;
  // The first relay sizes the store-and-forward buffer and the scoped
  // event list; the rest are the steady state.
  rig.deliver(2, RelayRig::report_frame());
  rig.queue.run();
  for (size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(rig.deliver(2, RelayRig::report_frame()), 1u) << "report " << i;
    rig.queue.run();
    EXPECT_EQ(rig.uplinked, 1 + i);
  }
  EXPECT_EQ(rig.relay->stats().reports_relayed, 4u);
}

TEST(RelayAllocations, BusyRelayReusesItsQueueBuffer) {
  // One report arrives per forward spacing while two wait, so the queue
  // never empties and its head keeps moving: the relay still allocates
  // only each report's outgoing frame.
  RelayNodeConfig config;
  config.forward_spacing = Duration::millis(10);
  RelayRig rig(config);
  rig.deliver(2, RelayRig::report_frame());
  rig.deliver(2, RelayRig::report_frame());
  const auto one_spacing = [&] {
    const size_t allocations = rig.deliver(2, RelayRig::report_frame());
    // Up to just past the next drain, which sends the oldest report.
    rig.queue.run_until(rig.queue.now() + Duration::millis(8));
    return allocations;
  };
  for (int i = 0; i < 4; ++i) one_spacing();  // sizes the buffer
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(one_spacing(), 1u) << "report " << i;
  }
  EXPECT_EQ(rig.relay->stats().reports_dropped, 0u);
  rig.queue.run();
  EXPECT_EQ(rig.relay->stats().reports_relayed, 46u);
  EXPECT_EQ(rig.uplinked, 46u);
}

TEST(RelayAllocations, ReportFrameAllocatesOnce) {
  RelayReport report;
  report.flood = kFlood;
  report.origin = 9;
  report.inner_type = 2;
  report.path = {9, 4, 2};
  report.response = Bytes(200, 0x44);
  Bytes frame;
  EXPECT_EQ(allocations_in([&] { frame = report.frame(); }), 1u);
  EXPECT_EQ(frame, frame_relay(report.kind, report.serialize()));
}

TEST(RelayAllocations, AggregateMacInputAllocatesOnce) {
  aggregate::AggregateFrame frame;
  frame.flood = kFlood;
  frame.head = 3;
  frame.members = {4, 5, 6, 9};
  frame.bitmap = {0x0b};
  frame.root = Bytes(32, 0x11);
  frame.raw_bytes = 300;
  Bytes input;
  EXPECT_EQ(allocations_in(
                [&] { input = aggregate::aggregate_mac_input(frame); }),
            1u);
  EXPECT_EQ(input.size(), 4 + 4 + 4 + 4 * 4 + 4 + 1 + 4 + 32 + 4u);
}

}  // namespace
}  // namespace erasmus::overlay
