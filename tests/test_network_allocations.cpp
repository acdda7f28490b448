// The cost of one radio transmission, counted: a broadcast heard by m
// receivers is one delivery event, and once the network's in-flight slots
// and the queue's buffers are sized, a transmission -- a broadcast to m = 1
// or m = 32 receivers, or a unicast -- allocates nothing. The counts are
// exact and machine-independent. This binary replaces the global operator
// new with a counting one.
#include <gtest/gtest.h>

#include "counting_new.h"
#include "net/network.h"

namespace erasmus::net {
namespace {

using erasmus::testing::allocations_in;

/// A sender, node 0, and `m` receivers on a fully connected radio.
struct Air {
  sim::EventQueue queue;
  Network net{queue, sim::Duration::millis(2)};
  size_t heard = 0;

  explicit Air(size_t m) {
    net.add_node({});
    for (size_t i = 0; i < m; ++i) {
      net.add_node([this](const Datagram&) { ++heard; });
    }
    net.set_link_filter([](NodeId, NodeId) { return true; });
  }
};

const Bytes kPayload(40, 0x5a);

TEST(TransmissionCost, BroadcastHeardByManyIsOnePendingEvent) {
  for (const size_t m : {1u, 32u}) {
    Air air(m);
    air.net.broadcast_all(0, 0, kPayload);
    EXPECT_EQ(air.queue.pending(), 1u) << "m = " << m;
    EXPECT_EQ(air.net.stats().sent, m);
    air.queue.run();
    EXPECT_EQ(air.heard, m);
    EXPECT_EQ(air.net.stats().delivered, m);
  }
}

TEST(TransmissionCost, AllocationsDoNotGrowWithTheReceiverCount) {
  for (const size_t m : {1u, 32u}) {
    Air air(m);
    // The first transmission sizes the network's and the queue's reusable
    // buffers; the rest are the steady state.
    air.net.broadcast_all(0, 0, kPayload);
    air.queue.run();
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(allocations_in([&] {
                  air.net.broadcast_all(0, 0, kPayload);
                  air.queue.run();
                }),
                0u)
          << "m = " << m << ", transmission " << i;
    }
    EXPECT_EQ(air.heard, 4 * m);
  }
}

// A unicast's slot takes the sender's buffer instead of copying it.
TEST(TransmissionCost, UnicastAllocatesNothingOnceSized) {
  Air air(2);
  air.net.send(0, 1, kPayload);
  air.queue.run();
  for (int i = 0; i < 3; ++i) {
    Bytes payload = kPayload;
    const uint8_t* const buffer = payload.data();
    const uint8_t* heard_at = nullptr;
    air.net.set_handler(2, [&](const Datagram& d) {
      ++air.heard;
      heard_at = d.payload.data();
    });
    EXPECT_EQ(allocations_in([&] {
                air.net.send(0, 2, std::move(payload));
                air.queue.run();
              }),
              0u)
        << "unicast " << i;
    EXPECT_EQ(heard_at, buffer) << "unicast " << i;
  }
  EXPECT_EQ(air.heard, 4u);
  EXPECT_EQ(air.net.stats().delivered, 4u);
}

// A handler that transmits while its own transmission is being delivered
// takes another in-flight slot -- here the network grows from one slot to
// seventeen in the middle of a delivery -- and every later receiver of the
// first transmission still reads its payload.
TEST(TransmissionCost, ReplyDuringADeliveryLeavesItsPayloadIntact) {
  sim::EventQueue queue;
  Network net{queue, sim::Duration::millis(2)};
  std::vector<Bytes> replies;
  size_t intact = 0;
  net.add_node([&](const Datagram& d) {
    replies.emplace_back(d.payload.begin(), d.payload.end());
  });
  for (int i = 0; i < 8; ++i) {
    net.add_node([&](const Datagram& d) {
      if (d.src != 0) return;
      if (equal(d.payload, kPayload)) ++intact;
      net.send(d.dst, 0, Bytes(d.dst, static_cast<uint8_t>(d.dst)));
      net.broadcast_all(d.dst, 0, Bytes(3, 0xee));
    });
  }
  net.broadcast_all(0, 0, kPayload);
  queue.run();
  EXPECT_EQ(intact, 8u);
  ASSERT_EQ(replies.size(), 8u);
  for (uint8_t dst = 1; dst <= 8; ++dst) {
    EXPECT_EQ(replies[dst - 1], Bytes(dst, dst));
  }
  EXPECT_EQ(net.stats().delivered, 8u + 8u + 8u * 7u);
}

}  // namespace
}  // namespace erasmus::net
