// The cost of one radio transmission, counted: a broadcast heard by m
// receivers is one delivery event, and it allocates the same for m = 1 as
// for m = 32. The counts are exact and machine-independent. This binary
// replaces the global operator new with a counting one.
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
  const auto per_transmission = [](size_t m) {
    Air air(m);
    // The first transmission sizes the network's and the queue's reusable
    // buffers; the second is the steady state.
    air.net.broadcast_all(0, 0, kPayload);
    air.queue.run();
    const size_t allocations = allocations_in([&] {
      air.net.broadcast_all(0, 0, kPayload);
      air.queue.run();
    });
    EXPECT_EQ(air.heard, 2 * m);
    return allocations;
  };
  const size_t one = per_transmission(1);
  EXPECT_GT(one, 0u) << "the delivery event owns a copy of the payload";
  EXPECT_EQ(per_transmission(32), one);
}

}  // namespace
}  // namespace erasmus::net
