// The kDirect batch serve (attest/transport.h): provers are served
// domain-parallel into per-peer batch slots, then delivered in batch
// order.
//
// The property under test is the load-bearing one for the 1/2/8-thread
// byte-identity invariant: delivery is exactly what the send() loop
// delivers, for any batch order -- NEVER a function of which worker
// served which domain. See docs/DETERMINISM.md rule R1.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "attest/directory.h"
#include "attest/prover.h"
#include "attest/transport.h"
#include "common/parallel.h"

namespace erasmus::attest {
namespace {

using sim::Duration;
using sim::Time;

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

Bytes device_key(uint32_t id) {
  Bytes key = bytes_of("channel-test-key-0123456789abcd");
  key.push_back(static_cast<uint8_t>(id));
  return key;
}

struct Device {
  hw::SmartPlusArch arch;
  Prover prover;

  Device(sim::EventQueue& queue, uint32_t id)
      : arch(device_key(id), 4096, 2048, 32 * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<RegularScheduler>(Duration::minutes(10)),
               ProverConfig{}) {}
};

struct Delivery {
  net::NodeId src;
  MsgType type;
  Bytes body;
  bool operator==(const Delivery& o) const {
    return src == o.src && type == o.type && body == o.body;
  }
};

/// `n` measured devices, attached to a batch-serving transport (`domains`
/// radio domains, verifier co-located with device 0) and to a plain one
/// that serves through the send() loop.
struct Rig {
  sim::EventQueue queue;
  common::ParallelExecutor executor;
  std::vector<std::unique_ptr<Device>> devices;
  DirectTransport batched;
  DirectTransport sequential;
  std::vector<Delivery> batched_log;
  std::vector<Delivery> sequential_log;

  Rig(uint32_t n, size_t domains, size_t width = 4) : executor(width) {
    for (uint32_t id = 0; id < n; ++id) {
      devices.push_back(std::make_unique<Device>(queue, id));
      batched.attach(id, devices[id]->prover);
      sequential.attach(id, devices[id]->prover);
    }
    batched.enable_batch_serve(executor, domains, /*sink=*/0);
    for (auto& d : devices) d->prover.start();
    queue.run_until(Time::zero() + Duration::minutes(45));
    batched.set_receiver([this](net::NodeId src, MsgType type, ByteView b) {
      batched_log.push_back({src, type, Bytes(b.begin(), b.end())});
    });
    sequential.set_receiver(
        [this](net::NodeId src, MsgType type, ByteView b) {
          sequential_log.push_back({src, type, Bytes(b.begin(), b.end())});
        });
  }

  /// Serves `peers` both ways: one batched broadcast, one send() loop.
  void collect(const std::vector<net::NodeId>& peers, uint32_t k) {
    const Bytes body = CollectRequest{k}.serialize();
    batched.broadcast(peers, MsgType::kCollectRequest, body);
    for (const net::NodeId peer : peers) {
      sequential.send(peer, MsgType::kCollectRequest, body);
    }
  }
};

TEST(DirectTransportBatchServe, CrossDomainFleetMatchesSequentialServe) {
  // 6 devices over 3 radio domains (contiguous blocks of 2), verifier
  // co-located with device 0 (domain 0). Collecting {2..5} means EVERY
  // response crosses a domain boundary.
  Rig rig(6, /*domains=*/3);
  EXPECT_EQ(rig.batched.domain_of(0), 0u);
  EXPECT_EQ(rig.batched.domain_of(1), 0u);
  EXPECT_EQ(rig.batched.domain_of(2), 1u);
  EXPECT_EQ(rig.batched.domain_of(5), 2u);

  rig.collect({2, 3, 4, 5}, 4);

  // Same responses, same id order, byte for byte.
  ASSERT_EQ(rig.batched_log.size(), 4u);
  EXPECT_EQ(rig.batched_log, rig.sequential_log);
  EXPECT_EQ(rig.batched.last_processing().ns(),
            rig.sequential.last_processing().ns());

  // All four replies crossed domains (the sink domain served none).
  const DirectTransport::BatchCounters& c = rig.batched.batch_counters();
  EXPECT_EQ(c.frames_cross, 4u);
  EXPECT_EQ(c.frames_local, 0u);
  EXPECT_EQ(c.drains, 1u);

  // A batch inside the sink's own domain counts as local traffic.
  rig.collect({0, 1}, 4);
  EXPECT_EQ(rig.batched.batch_counters().frames_local, 2u);
  EXPECT_EQ(rig.batched.batch_counters().frames_cross, 4u);
  EXPECT_EQ(rig.batched.batch_counters().drains, 2u);
  EXPECT_EQ(rig.batched_log.size(), 6u);
  EXPECT_EQ(rig.batched_log, rig.sequential_log);
}

TEST(DirectTransportBatchServe, UnsortedBatchMatchesTheSendLoop) {
  // Batch order is not id order and interleaves domains: {5, 2, 4, 3, 0}
  // over domains {0,1} {2,3} {4,5}. Delivery must follow the batch, as
  // the send() loop does -- not the domains.
  Rig rig(6, /*domains=*/3);
  const std::vector<net::NodeId> peers = {5, 2, 4, 3, 0};
  rig.collect(peers, 4);

  ASSERT_EQ(rig.batched_log.size(), peers.size());
  EXPECT_EQ(rig.batched_log, rig.sequential_log);
  for (size_t i = 0; i < peers.size(); ++i) {
    EXPECT_EQ(rig.batched_log[i].src, peers[i]) << "slot " << i;
  }
  EXPECT_EQ(rig.batched.last_processing().ns(),
            rig.sequential.last_processing().ns());
  EXPECT_EQ(rig.batched.batch_counters().frames_local, 1u);
  EXPECT_EQ(rig.batched.batch_counters().frames_cross, 4u);
  EXPECT_EQ(rig.batched.batch_counters().drains, 1u);
}

TEST(DirectTransportBatchServe, RepeatedRunsAreIdenticalAcrossPoolWidths) {
  // The same fleet served through 1-wide and 4-wide pools must deliver
  // identical bytes: worker count is wall-clock only. (This is the
  // transport-level slice of the CI cmp jobs.)
  std::vector<std::vector<Delivery>> logs;
  for (const size_t width : {size_t{1}, size_t{4}}) {
    Rig rig(9, /*domains=*/3, width);
    rig.collect({0, 1, 2, 3, 4, 5, 6, 7, 8}, 3);
    EXPECT_EQ(rig.batched.batch_counters().frames_local, 3u);
    EXPECT_EQ(rig.batched.batch_counters().frames_cross, 6u);
    EXPECT_EQ(rig.batched_log, rig.sequential_log);
    logs.push_back(rig.batched_log);
  }
  ASSERT_EQ(logs.size(), 2u);
  EXPECT_EQ(logs[0], logs[1]);
}

}  // namespace
}  // namespace erasmus::attest
