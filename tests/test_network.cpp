// Tests for the simulated datagram network: latency, loss, link filters,
// delivery statistics, and the range-query broadcast checked against the
// full scan over a mobility-backed radio.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "sim/rng.h"
#include "swarm/radio_links.h"

namespace erasmus::net {
namespace {

using sim::Duration;
using sim::EventQueue;
using sim::Time;

TEST(Network, DeliversAfterLatency) {
  EventQueue q;
  Network net(q, Duration::millis(7));
  std::optional<Time> delivered_at;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node(
      [&](const Datagram&) { delivered_at = q.now(); });
  q.schedule_at(Time(0), [&] { net.send(a, b, Bytes{1, 2, 3}); });
  q.run();
  ASSERT_TRUE(delivered_at.has_value());
  EXPECT_EQ(delivered_at->ns(), Duration::millis(7).ns());
}

/// A delivered datagram with its payload copied out of the handler call,
/// the only span the view is valid for.
struct Heard {
  NodeId src = 0;
  NodeId dst = 0;
  Bytes payload;
};

Heard copy_of(const Datagram& d) {
  return {d.src, d.dst, Bytes(d.payload.begin(), d.payload.end())};
}

TEST(Network, PayloadAndAddressingPreserved) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  std::optional<Heard> got;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram& d) { got = copy_of(d); });
  net.send(a, b, Bytes{0xde, 0xad});
  q.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, a);
  EXPECT_EQ(got->dst, b);
  EXPECT_EQ(got->payload, (Bytes{0xde, 0xad}));
}

TEST(Network, LossDropsApproximatelyTheConfiguredFraction) {
  EventQueue q;
  Network net(q, Duration::millis(1), /*loss=*/0.25, /*seed=*/11);
  size_t received = 0;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram&) { ++received; });
  const int kSent = 4000;
  for (int i = 0; i < kSent; ++i) net.send(a, b, Bytes{1});
  q.run();
  EXPECT_NEAR(static_cast<double>(received) / kSent, 0.75, 0.03);
  EXPECT_EQ(net.stats().sent, static_cast<uint64_t>(kSent));
  EXPECT_EQ(net.stats().delivered, received);
  EXPECT_EQ(net.stats().dropped_loss, kSent - received);
}

TEST(Network, LinkFilterEvaluatedAtSendTime) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  size_t received = 0;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram&) { ++received; });
  bool connected = false;
  net.set_link_filter([&](NodeId, NodeId) { return connected; });

  net.send(a, b, Bytes{1});  // disconnected: dropped
  connected = true;
  net.send(a, b, Bytes{2});  // connected: delivered even if the link
  connected = false;         // breaks before the delivery event fires
  q.run();
  EXPECT_EQ(received, 1u);
  EXPECT_EQ(net.stats().dropped_disconnected, 1u);
}

TEST(Network, HandlerCanBeReplaced) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  int first = 0, second = 0;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram&) { ++first; });
  net.send(a, b, Bytes{1});
  q.run();
  net.set_handler(b, [&](const Datagram&) { ++second; });
  net.send(a, b, Bytes{2});
  q.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Network, UnknownEndpointsRejected) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  const NodeId a = net.add_node({});
  EXPECT_THROW(net.send(a, 99, Bytes{1}), std::out_of_range);
  EXPECT_THROW(net.send(99, a, Bytes{1}), std::out_of_range);
  EXPECT_THROW(net.set_handler(5, {}), std::out_of_range);
}

TEST(Network, LossProbabilityOutsideTheUnitIntervalRejected) {
  EventQueue q;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-0.5, 1.5, nan, inf, -inf}) {
    EXPECT_THROW(Network(q, Duration::millis(1), bad), std::invalid_argument)
        << bad;
  }
  Network net(q, Duration::millis(1), 1.0);  // both ends are valid
  net.set_loss_probability(0.0);
  for (const double bad : {-0.5, 1.5, nan, inf}) {
    EXPECT_THROW(net.set_loss_probability(bad), std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(net.loss_probability(), 0.0) << "a rejected value is not kept";
  try {
    net.set_loss_probability(1.5);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1.5"), std::string::npos)
        << "the error must name the value: " << e.what();
  }
}

TEST(Network, NullHandlerDropsSilently) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node({});  // no handler
  net.send(a, b, Bytes{1});
  EXPECT_NO_THROW(q.run());
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Network, PerDestinationStatsTrackEachNode) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([](const Datagram&) {});
  const NodeId c = net.add_node([](const Datagram&) {});
  for (int i = 0; i < 3; ++i) net.send(a, b, Bytes{1});
  for (int i = 0; i < 2; ++i) net.send(a, c, Bytes{2});
  q.run();

  EXPECT_EQ(net.node_stats(b).sent, 3u);
  EXPECT_EQ(net.node_stats(b).delivered, 3u);
  EXPECT_EQ(net.node_stats(c).sent, 2u);
  EXPECT_EQ(net.node_stats(c).delivered, 2u);
  EXPECT_EQ(net.node_stats(a).sent, 0u);
  EXPECT_EQ(net.stats().sent, 5u);
  EXPECT_THROW(net.node_stats(99), std::out_of_range);
}

TEST(Network, PerDestinationStatsSplitDropCauses) {
  EventQueue q;
  Network net(q, Duration::millis(1), /*loss=*/0.5, /*seed=*/3);
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([](const Datagram&) {});
  const NodeId c = net.add_node([](const Datagram&) {});
  net.set_link_filter([&](NodeId, NodeId dst) { return dst != c; });
  for (int i = 0; i < 200; ++i) net.send(a, b, Bytes{1});
  net.send(a, c, Bytes{2});
  q.run();

  const auto& to_b = net.node_stats(b);
  EXPECT_EQ(to_b.dropped_disconnected, 0u);
  EXPECT_GT(to_b.dropped_loss, 0u);
  EXPECT_EQ(to_b.delivered + to_b.dropped_loss, 200u);
  const auto& to_c = net.node_stats(c);
  EXPECT_EQ(to_c.dropped_disconnected, 1u);
  EXPECT_EQ(to_c.delivered, 0u);
}

TEST(Network, BroadcastReachesEveryDestinationInOrder) {
  EventQueue q;
  Network net(q, Duration::millis(2));
  std::vector<NodeId> order;
  const NodeId src = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram& d) {
    order.push_back(d.dst);
    EXPECT_EQ(d.src, src);
    EXPECT_EQ(copy_of(d).payload, (Bytes{0xaa, 0xbb}));
  });
  const NodeId c = net.add_node([&](const Datagram& d) {
    order.push_back(d.dst);
  });
  net.broadcast(src, {c, b}, Bytes{0xaa, 0xbb});
  q.run();

  EXPECT_EQ(order, (std::vector<NodeId>{c, b}))
      << "broadcast delivers in destination-list order";
  EXPECT_EQ(net.stats().sent, 2u);
  EXPECT_EQ(net.node_stats(b).delivered, 1u);
  EXPECT_EQ(net.node_stats(c).delivered, 1u);
}

TEST(Network, ReceiverReplacesALaterReceiversHandlerMidTransmission) {
  // One transmission reaches b, then c. b's handler swaps c's: the
  // delivery looks each handler up as it reaches that destination, so c
  // runs the new one -- as when every destination had its own event.
  EventQueue q;
  Network net(q, Duration::millis(1));
  std::vector<std::string> calls;
  const NodeId src = net.add_node({});
  const NodeId b = net.add_node({});
  const NodeId c =
      net.add_node([&](const Datagram&) { calls.push_back("old c"); });
  net.set_handler(b, [&](const Datagram&) {
    calls.push_back("b");
    net.set_handler(c, [&](const Datagram& d) {
      calls.push_back("new c");
      EXPECT_EQ(copy_of(d).payload, (Bytes{4, 2}));
    });
  });
  net.broadcast(src, {b, c}, Bytes{4, 2});
  q.run();
  EXPECT_EQ(calls, (std::vector<std::string>{"b", "new c"}));
}

TEST(Network, SameInstantEventsRunAfterEveryReceiver) {
  // Zero latency: the delivery runs at the send instant. What the first
  // receiver schedules at that instant -- an event, or a zero-latency
  // reply -- runs only after the transmission's last receiver.
  EventQueue q;
  Network net(q, Duration::nanos(0));
  std::vector<std::string> order;
  const NodeId src = net.add_node([&](const Datagram& d) {
    order.push_back("reply from " + std::to_string(d.src));
  });
  std::vector<NodeId> dsts;
  for (int i = 0; i < 3; ++i) {
    dsts.push_back(net.add_node([&](const Datagram& d) {
      order.push_back("rx " + std::to_string(d.dst));
      if (d.dst != dsts.front()) return;
      q.schedule_at(q.now(), [&] { order.push_back("scheduled"); });
      net.send(d.dst, src, Bytes{1});
    }));
  }
  q.schedule_at(Time(5), [&] { net.broadcast_all(src, src, Bytes{9}); });
  q.run();
  EXPECT_EQ(order, (std::vector<std::string>{"rx 1", "rx 2", "rx 3",
                                             "scheduled", "reply from 1"}));
  EXPECT_EQ(q.now(), Time(5));
}

TEST(Network, RxEnergyIsChargedAtSendTimeOncePerAdmittedDestination) {
  // The filter refuses node 2 and the loss draw drops some: every other
  // destination is charged rx at send time, before the delivery event
  // runs, and exactly those are delivered.
  EventQueue q;
  Network net(q, Duration::millis(3), /*loss=*/0.3, /*seed=*/7);
  std::vector<NodeId> rx_charged;
  std::vector<NodeId> heard;
  size_t tx_charges = 0;
  const NodeId src = net.add_node({});
  std::vector<NodeId> dsts;
  for (int i = 0; i < 12; ++i) {
    dsts.push_back(net.add_node([&](const Datagram& d) {
      heard.push_back(d.dst);
    }));
  }
  net.set_link_filter([](NodeId, NodeId dst) { return dst != 2; });
  net.set_energy_tap([&](NodeId node, size_t bytes, bool tx) {
    EXPECT_EQ(bytes, 3u);
    if (tx) {
      ++tx_charges;
    } else {
      rx_charged.push_back(node);
    }
  });
  net.broadcast(src, dsts, Bytes{1, 2, 3});
  EXPECT_EQ(tx_charges, 1u);
  EXPECT_EQ(rx_charged.size(), 12u - 1u - net.stats().dropped_loss);
  EXPECT_GT(net.stats().dropped_loss, 0u);
  EXPECT_TRUE(heard.empty()) << "charged before the delivery event runs";
  EXPECT_EQ(net.stats().delivered, 0u);
  q.run();
  EXPECT_EQ(heard, rx_charged) << "delivered to exactly the charged, in order";
  EXPECT_EQ(net.stats().delivered, rx_charged.size());
  EXPECT_EQ(tx_charges, 1u);
}

TEST(Network, BroadcastDrawsLossPerDestination) {
  EventQueue q;
  Network net(q, Duration::millis(1), /*loss=*/0.25, /*seed=*/11);
  size_t received = 0;
  const NodeId src = net.add_node({});
  std::vector<NodeId> dsts;
  for (int i = 0; i < 40; ++i) {
    dsts.push_back(net.add_node([&](const Datagram&) { ++received; }));
  }
  for (int round = 0; round < 100; ++round) {
    net.broadcast(src, dsts, Bytes{1});
  }
  q.run();
  // Independent per-destination draws: ~75% of 4000 get through.
  EXPECT_NEAR(static_cast<double>(received) / 4000.0, 0.75, 0.03);
}

TEST(Network, BroadcastToAnUnknownNodeHasNoSideEffect) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  size_t taps = 0;
  net.set_energy_tap([&](NodeId, size_t, bool) { ++taps; });
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([](const Datagram&) {});
  EXPECT_THROW(net.broadcast(a, {b, 99}, Bytes{1, 2}), std::out_of_range);
  q.run();
  EXPECT_EQ(taps, 0u);
  EXPECT_EQ(net.stats().sent, 0u);
  EXPECT_EQ(net.stats().bytes_sent, 0u);
  EXPECT_EQ(net.stats().phys_tx_bytes, 0u);
  EXPECT_EQ(net.stats().transmissions, 0u);
  EXPECT_EQ(net.stats().delivered, 0u);
  EXPECT_EQ(net.node_stats(b).sent, 0u);
  EXPECT_EQ(net.node_stats(b).delivered, 0u);
}

// Every field but link_checks, which is exactly what a range query saves.
auto outcome(const Network::Stats& s) {
  return std::tuple(s.sent, s.delivered, s.dropped_loss,
                    s.dropped_disconnected, s.bytes_sent, s.phys_tx_bytes,
                    s.phys_rx_bytes, s.transmissions);
}

TEST(Network, BroadcastAllAccountsUnaskedNodesAsRefusals) {
  // Node 0 transmits, node 5 is excepted; the filter accepts 2 and 4.
  // The query's answer {1, 2, 4} is a superset: 3 and 6 are refused
  // without a link check, exactly as the full scan refuses them.
  struct Rig {
    EventQueue q;
    Network net{q, Duration::millis(1)};
    std::vector<NodeId> heard;
    size_t tx_taps = 0;
    explicit Rig(Network::RangeQuery query) {
      for (int i = 0; i < 7; ++i) {
        net.add_node([this](const Datagram& d) { heard.push_back(d.dst); });
      }
      net.set_link_filter([](NodeId, NodeId d) { return d == 2 || d == 4; },
                          std::move(query));
      net.set_energy_tap([this](NodeId, size_t, bool tx) { tx_taps += tx; });
    }
  };
  Rig scan(nullptr);
  Rig indexed([](NodeId, std::vector<NodeId>& out) {
    out = {1, 2, 4};
    return true;
  });
  for (Rig* r : {&scan, &indexed}) {
    r->net.broadcast_all(0, 5, Bytes{7, 7, 7});
    r->q.run();
    EXPECT_EQ(r->heard, (std::vector<NodeId>{2, 4}));
    EXPECT_EQ(r->tx_taps, 1u);
    EXPECT_EQ(r->net.stats().sent, 5u) << "every node but src and except";
    EXPECT_EQ(r->net.stats().dropped_disconnected, 3u);
    EXPECT_EQ(r->net.stats().transmissions, 1u);
  }
  EXPECT_EQ(scan.net.stats().link_checks, 5u);
  EXPECT_EQ(indexed.net.stats().link_checks, 3u);
  EXPECT_EQ(outcome(scan.net.stats()), outcome(indexed.net.stats()));
  for (NodeId n = 0; n < 7; ++n) {
    EXPECT_EQ(outcome(scan.net.node_stats(n)),
              outcome(indexed.net.node_stats(n)))
        << "node " << n;
  }
  EXPECT_EQ(indexed.net.node_stats(6).bytes_sent, 3u);
  // A node registered later was never offered those broadcasts.
  EXPECT_EQ(indexed.net.node_stats(indexed.net.add_node({})).sent, 0u);
}

TEST(Network, BroadcastAllKeysTheRadioEvenWithoutCandidates) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  size_t tx_taps = 0;
  net.set_energy_tap([&](NodeId, size_t, bool tx) { tx_taps += tx; });
  for (int i = 0; i < 4; ++i) net.add_node({});
  net.set_link_filter([](NodeId, NodeId) { return true; },
                      [](NodeId, std::vector<NodeId>& out) {
                        out.clear();
                        return true;
                      });
  net.broadcast_all(1, 1, Bytes{1, 2});
  EXPECT_EQ(tx_taps, 1u);
  EXPECT_EQ(net.stats().phys_tx_bytes, 2u);
  EXPECT_EQ(net.stats().sent, 3u);
  EXPECT_EQ(net.stats().dropped_disconnected, 3u);
  EXPECT_EQ(net.stats().link_checks, 0u);
  EXPECT_EQ(net.node_stats(0).dropped_disconnected, 1u);
  EXPECT_EQ(net.node_stats(1).sent, 0u) << "the sender is never offered";
  // A lone node offers nothing and keys nothing.
  EventQueue q1;
  Network lone(q1, Duration::millis(1));
  lone.add_node({});
  lone.broadcast_all(0, 0, Bytes{1});
  EXPECT_EQ(lone.stats().transmissions, 0u);
  EXPECT_EQ(lone.stats().phys_tx_bytes, 0u);
}

// A mobility-backed overlay radio: devices [0, kDevices) plus a verifier
// node co-located with the root, filtered by swarm::RadioLinks::link_up,
// with or without its grid range query. Devices leave and rejoin (as the
// runner's churn does), run dry after a per-device transmission budget
// (the energy tap darkens them mid-instant, as a battery does), and a
// scheduled partition vetoes links across id classes.
struct RadioRig {
  static constexpr size_t kDevices = 150;
  static constexpr swarm::DeviceId kRoot = 40;

  static swarm::MobilityConfig mobility_config() {
    swarm::MobilityConfig m;
    m.devices = kDevices;
    m.field_size = 500.0;
    m.radio_range = 60.0;
    m.speed_min = 1.0;
    m.speed_max = 25.0;
    m.seed = 11;
    return m;
  }
  static bool partitioned(swarm::DeviceId a, swarm::DeviceId b, Time at) {
    const int64_t minute = static_cast<int64_t>(at.ns() / 60'000'000'000ull);
    return minute % 7 >= 4 && (a % 3 == 0) != (b % 3 == 0);
  }

  EventQueue queue;
  swarm::RandomWaypointMobility mobility{mobility_config()};
  std::vector<bool> present = std::vector<bool>(kDevices, true);
  std::vector<int> tx_budget = std::vector<int>(kDevices, 0);
  Network net{queue, Duration::millis(2), /*loss=*/0.1, /*seed=*/5};
  swarm::RadioLinks links{
      mobility, queue, kRoot,
      [this](swarm::DeviceId id) { return present[id] && tx_budget[id] > 0; },
      [](swarm::DeviceId a, swarm::DeviceId b, Time at) {
        return !partitioned(a, b, at);
      }};
  std::vector<std::tuple<uint64_t, NodeId, NodeId, size_t>> heard;
  size_t answered = 0;
  size_t declined = 0;

  explicit RadioRig(bool indexed) {
    sim::Rng budgets(3);
    for (int& b : tx_budget) b = static_cast<int>(budgets.uniform(10, 400));
    for (size_t n = 0; n <= kDevices; ++n) {
      net.add_node([this](const Datagram& d) {
        heard.emplace_back(queue.now().ns(), d.src, d.dst, d.payload.size());
      });
    }
    Network::RangeQuery query;
    if (indexed) {
      query = [this](NodeId src, std::vector<NodeId>& out) {
        const bool ok = links.candidates(src, out);
        ++(ok ? answered : declined);
        return ok;
      };
    }
    net.set_link_filter(
        [this](NodeId a, NodeId b) { return links.link_up(a, b); }, query);
    net.set_energy_tap([this](NodeId node, size_t, bool tx) {
      if (tx && node < kDevices && tx_budget[node] > 0) --tx_budget[node];
    });
  }
};

TEST(Network, GridRangeQueryMatchesTheFullScanOverMobility) {
  // One seeded script, replayed on both rigs: broadcasts (from the
  // verifier, from departed and drained devices, excepting the verifier
  // or a random node), unicasts that extend trajectories in between,
  // churn (the root included), and clock steps from zero (same instant)
  // to minutes (every trajectory must extend).
  struct Op {
    int kind;
    NodeId a;
    NodeId b;
    uint64_t step_ns;
  };
  constexpr NodeId kVerifier = RadioRig::kDevices;
  constexpr size_t kOps = 3000;
  const auto root_away = [](size_t i) {
    return i >= kOps / 3 && i < 2 * kOps / 3;
  };
  sim::Rng script_rng(2024);
  std::vector<Op> script;
  for (size_t i = 0; i < kOps; ++i) {
    const auto node = [&] {
      return static_cast<NodeId>(script_rng.next_below(kVerifier + 1));
    };
    Op op{static_cast<int>(script_rng.next_below(10)), node(), node(), 0};
    if (op.kind == 0) {
      static constexpr uint64_t kSteps[] = {0, 1'000'000, 2'000'000,
                                            10'000'000'000ull,
                                            300'000'000'000ull};
      op.step_ns = kSteps[script_rng.next_below(5)];
    }
    // Re-floods except the node they came from -- often the verifier.
    // While the root is away, such floods are the only traffic that
    // leaves its trajectory behind the clock, so they dominate there.
    if (op.kind >= 3 && script_rng.chance(root_away(i) ? 0.8 : 0.3)) {
      op.b = kVerifier;
    }
    script.push_back(op);
  }

  RadioRig scan(/*indexed=*/false);
  RadioRig indexed(/*indexed=*/true);
  for (RadioRig* rig : {&scan, &indexed}) {
    for (size_t i = 0; i < script.size(); ++i) {
      const Op& op = script[i];
      // The root is away for the middle third: the verifier keeps
      // standing in at its position.
      if (rig->present[RadioRig::kRoot] == root_away(i)) {
        rig->present[RadioRig::kRoot] = !root_away(i);
        rig->links.invalidate();
      }
      const Bytes payload(1 + op.a % 23, static_cast<uint8_t>(i));
      switch (op.kind) {
        case 0:
          rig->queue.run_until(rig->queue.now() + Duration(op.step_ns));
          break;
        case 1:
          if (op.a < kVerifier && op.a != RadioRig::kRoot) {
            rig->present[op.a] = !rig->present[op.a];
            rig->links.invalidate();
          }
          break;
        case 2:
          rig->net.send(op.a, op.b, payload);
          break;
        default:
          rig->net.broadcast_all(op.a, op.b, payload);
          break;
      }
    }
    rig->queue.run();
  }

  EXPECT_GT(indexed.answered, 1000u);
  EXPECT_GT(indexed.declined, 10u) << "the script must force extensions";
  EXPECT_GT(scan.net.stats().dropped_loss, 0u);
  EXPECT_EQ(scan.heard, indexed.heard);
  EXPECT_EQ(outcome(scan.net.stats()), outcome(indexed.net.stats()));
  EXPECT_LT(indexed.net.stats().link_checks * 3, scan.net.stats().link_checks);
  for (NodeId n = 0; n <= kVerifier; ++n) {
    EXPECT_EQ(outcome(scan.net.node_stats(n)),
              outcome(indexed.net.node_stats(n)))
        << "node " << n;
  }
  // Same trajectory RNG consumption: later positions agree everywhere.
  const Time later = scan.queue.now() + Duration::minutes(20);
  for (swarm::DeviceId d = 0; d < RadioRig::kDevices; ++d) {
    const swarm::Point p = scan.mobility.position(d, later);
    const swarm::Point q = indexed.mobility.position(d, later);
    EXPECT_EQ(p.x, q.x) << "device " << d;
    EXPECT_EQ(p.y, q.y) << "device " << d;
  }
}

TEST(Network, InFlightOrderPreservedPerLink) {
  EventQueue q;
  Network net(q, Duration::millis(3));
  std::vector<uint8_t> order;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node(
      [&](const Datagram& d) { order.push_back(d.payload[0]); });
  for (uint8_t i = 0; i < 5; ++i) net.send(a, b, Bytes{i});
  q.run();
  EXPECT_EQ(order, (std::vector<uint8_t>{0, 1, 2, 3, 4}))
      << "same-latency datagrams keep FIFO order";
}

}  // namespace
}  // namespace erasmus::net
