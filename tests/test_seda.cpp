// Tests for the packet-level SEDA-style on-demand swarm baseline, and the
// head-to-head §6 comparison against the ERASMUS overlay collection on the
// SAME moving swarm.
#include <gtest/gtest.h>

#include "crypto/hkdf.h"
#include "overlay/collector.h"
#include "overlay/relay_node.h"
#include "swarm/mobility.h"
#include "swarm/seda.h"

namespace erasmus::swarm {
namespace {

using attest::Prover;
using attest::ProverConfig;
using sim::Duration;
using sim::Time;

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

Bytes device_key(uint32_t id) {
  Bytes salt{static_cast<uint8_t>(id), static_cast<uint8_t>(id >> 8)};
  return crypto::hkdf(bytes_of("seda-test-master"), salt, bytes_of("k"), 32);
}

// A swarm wired for BOTH protocols: SEDA agents are installed on demand,
// overlay relay nodes likewise (they share the network handler slot, so a
// rig is built per protocol). Device records live in one directory, node
// id == device id.
struct SwarmRig {
  sim::EventQueue queue;
  net::Network network;
  std::vector<std::unique_ptr<hw::SmartPlusArch>> archs;
  std::vector<std::unique_ptr<Prover>> provers;
  attest::DeviceDirectory directory;
  net::NodeId collector_node = 0;

  explicit SwarmRig(size_t n, sim::DeviceProfile profile =
                                  sim::DeviceProfile::msp430_8mhz())
      : network(queue, Duration::millis(2)) {
    for (uint32_t id = 0; id < n; ++id) {
      auto arch = std::make_unique<hw::SmartPlusArch>(device_key(id), 4096,
                                                      10 * 1024,
                                                      16 * kRecordBytes);
      ProverConfig pc;
      pc.profile = profile;
      auto prover = std::make_unique<Prover>(
          queue, *arch, arch->app_region(), arch->store_region(),
          std::make_unique<attest::RegularScheduler>(Duration::minutes(10)),
          pc);
      attest::DeviceRecord record;
      record.key = device_key(id);
      record.set_golden(crypto::Hash::digest(
          crypto::HashAlgo::kSha256,
          arch->memory().view(arch->app_region(), true)));
      directory.add(network.add_node({}), std::move(record));
      archs.push_back(std::move(arch));
      provers.push_back(std::move(prover));
    }
    collector_node = network.add_node({});
  }

  size_t size() const { return provers.size(); }
};

TEST(Seda, StaticSwarmFullCoverage) {
  SwarmRig rig(6);
  std::vector<std::unique_ptr<SedaAgent>> agents;
  for (uint32_t id = 0; id < rig.size(); ++id) {
    agents.push_back(std::make_unique<SedaAgent>(
        rig.queue, rig.network, id, id, *rig.provers[id], rig.size(),
        SedaConfig{}));
  }
  SedaCollector collector(rig.queue, rig.network, rig.collector_node,
                          rig.directory, rig.size());
  const auto result = collector.run_round(Duration::seconds(60));
  EXPECT_EQ(result.fresh_measurements_received, 6u);
  for (const auto& s : result.statuses) {
    EXPECT_TRUE(s.attested);
    EXPECT_TRUE(s.healthy);
  }
  // Duration dominated by the 10 KB @ 8 MHz measurement (~7 s).
  EXPECT_GT(result.elapsed.to_seconds(), 6.0);
}

TEST(Seda, RoundDurationDominatedByMeasurement) {
  SwarmRig rig(4);
  std::vector<std::unique_ptr<SedaAgent>> agents;
  for (uint32_t id = 0; id < rig.size(); ++id) {
    agents.push_back(std::make_unique<SedaAgent>(
        rig.queue, rig.network, id, id, *rig.provers[id], rig.size(),
        SedaConfig{}));
  }
  SedaCollector collector(rig.queue, rig.network, rig.collector_node,
                          rig.directory, rig.size());
  const auto result = collector.run_round(Duration::seconds(60));
  const double measure_s = sim::DeviceProfile::msp430_8mhz()
                               .measurement_time(crypto::MacAlgo::kHmacSha256,
                                                 10 * 1024)
                               .to_seconds();
  EXPECT_NEAR(result.elapsed.to_seconds(), measure_s, 3.5)
      << "elapsed ~ one measurement (all devices hash in parallel) plus "
         "child-timeout chains";
}

TEST(Seda, InfectedDeviceFlaggedByFreshMeasurement) {
  SwarmRig rig(4);
  rig.provers[2]->memory().write(rig.provers[2]->attested_region(), 0,
                                 bytes_of("EVIL"), false);
  std::vector<std::unique_ptr<SedaAgent>> agents;
  for (uint32_t id = 0; id < rig.size(); ++id) {
    agents.push_back(std::make_unique<SedaAgent>(
        rig.queue, rig.network, id, id, *rig.provers[id], rig.size(),
        SedaConfig{}));
  }
  SedaCollector collector(rig.queue, rig.network, rig.collector_node,
                          rig.directory, rig.size());
  const auto result = collector.run_round(Duration::seconds(60));
  EXPECT_TRUE(result.statuses[2].attested);
  EXPECT_FALSE(result.statuses[2].healthy);
  EXPECT_TRUE(result.statuses[1].healthy);
}

TEST(Seda, BrokenUplinkLosesWholeSubtree) {
  // Line topology collector--0--1--2--3; the 1-2 edge dies while devices
  // are measuring: devices 2 and 3 vanish from the aggregate.
  SwarmRig rig(4);
  const net::NodeId c = rig.collector_node;
  bool edge_1_2_alive = true;
  rig.network.set_link_filter([&, c](net::NodeId a, net::NodeId b) {
    if (a > b) std::swap(a, b);
    if (b == c) return a == 0;
    if (a == 1 && b == 2) return edge_1_2_alive;
    return b - a == 1;
  });
  std::vector<std::unique_ptr<SedaAgent>> agents;
  for (uint32_t id = 0; id < rig.size(); ++id) {
    agents.push_back(std::make_unique<SedaAgent>(
        rig.queue, rig.network, id, id, *rig.provers[id], rig.size(),
        SedaConfig{}));
  }
  SedaCollector collector(rig.queue, rig.network, rig.collector_node,
                          rig.directory, rig.size());
  // Kill the edge two seconds into the round (mid-measurement).
  rig.queue.schedule_after(Duration::seconds(2),
                           [&] { edge_1_2_alive = false; });
  const auto result = collector.run_round(Duration::seconds(60));
  EXPECT_EQ(result.fresh_measurements_received, 2u);
  EXPECT_TRUE(result.statuses[0].attested);
  EXPECT_TRUE(result.statuses[1].attested);
  EXPECT_FALSE(result.statuses[2].attested);
  EXPECT_FALSE(result.statuses[3].attested);
}

TEST(Seda, HeadToHeadUnderMobilityErasmusWins) {
  // The §6 comparison, packet-level, same mobility trace for both: fast
  // swarm, slow devices. ERASMUS overlay collection needs ~ms of
  // connectivity per hop; SEDA needs the tree alive for ~7 s.
  double seda_cov = 0, erasmus_cov = 0;
  const size_t kSeeds = 4;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    MobilityConfig mc;
    mc.devices = 10;
    mc.field_size = 120.0;
    mc.radio_range = 45.0;
    mc.speed_min = 8.0;
    mc.speed_max = 14.0;
    mc.seed = seed;

    const auto link_filter = [](RandomWaypointMobility& mob,
                                sim::EventQueue& q, net::NodeId collector,
                                size_t n) {
      return [&mob, &q, collector, n](net::NodeId a, net::NodeId b) {
        auto dev = [collector](net::NodeId x) {
          return x == collector ? DeviceId{0} : static_cast<DeviceId>(x);
        };
        if (a == b) return true;
        if ((a == collector && dev(b) == 0) ||
            (b == collector && dev(a) == 0)) {
          return true;  // collector rides with device 0
        }
        (void)n;
        return mob.connected(dev(a), dev(b), q.now());
      };
    };

    {  // SEDA
      SwarmRig rig(10);
      RandomWaypointMobility mob(mc);
      rig.network.set_link_filter(
          link_filter(mob, rig.queue, rig.collector_node, 10));
      std::vector<std::unique_ptr<SedaAgent>> agents;
      for (uint32_t id = 0; id < 10; ++id) {
        agents.push_back(std::make_unique<SedaAgent>(
            rig.queue, rig.network, id, id, *rig.provers[id], 10,
            SedaConfig{}));
      }
      SedaCollector collector(rig.queue, rig.network, rig.collector_node,
                              rig.directory, 10);
      rig.queue.run_until(Time::zero() + Duration::minutes(1));
      const auto r = collector.run_round(Duration::seconds(30));
      seda_cov += static_cast<double>(r.fresh_measurements_received) / 10.0;
    }
    {  // ERASMUS overlay
      SwarmRig rig(10);
      RandomWaypointMobility mob(mc);
      rig.network.set_link_filter(
          link_filter(mob, rig.queue, rig.collector_node, 10));
      std::vector<std::unique_ptr<overlay::RelayNode>> nodes;
      for (uint32_t id = 0; id < 10; ++id) {
        rig.provers[id]->start(Duration::seconds(10 + id));
        nodes.push_back(std::make_unique<overlay::RelayNode>(
            rig.queue, rig.network, id, *rig.provers[id]));
      }
      overlay::RelayCollector collector(rig.queue, rig.network,
                                        rig.collector_node, rig.directory,
                                        11);
      rig.queue.run_until(Time::zero() + Duration::minutes(1));
      const auto r = collector.run_round(4, Duration::seconds(30));
      erasmus_cov += static_cast<double>(r.reports_received) / 10.0;
    }
  }
  seda_cov /= kSeeds;
  erasmus_cov /= kSeeds;
  EXPECT_GT(erasmus_cov, seda_cov)
      << "ERASMUS=" << erasmus_cov << " SEDA=" << seda_cov;
}

}  // namespace
}  // namespace erasmus::swarm
