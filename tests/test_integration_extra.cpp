// Cross-module integration tests beyond the per-module suites: the HYDRA
// prover end-to-end, ERASMUS+OD over the network, irregular + lenient
// composition, mobility-driven packet-level relay (the full §6 stack), and
// an event-queue stress property.
#include <gtest/gtest.h>

#include <algorithm>

#include "attest/directory.h"
#include "attest/prover.h"
#include "attest/service.h"
#include "crypto/hkdf.h"
#include "overlay/relay_node.h"
#include "overlay/relay_transport.h"
#include "sim/rng.h"
#include "swarm/mobility.h"

namespace erasmus {
namespace {

using attest::CollectRequest;
using attest::DeviceRecord;
using attest::OdRequest;
using attest::Prover;
using attest::ProverConfig;
using crypto::MacAlgo;
using sim::Duration;
using sim::Time;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

TEST(HydraIntegration, FullErasmusLoopOnHydra) {
  sim::EventQueue queue;
  hw::HydraArch arch(test_key(), 64 * 1024, 32 * kRecordBytes);
  arch.secure_boot();
  arch.spawn_process("sensor-app", 100);
  ProverConfig pc;
  pc.profile = sim::DeviceProfile::imx6_1ghz();
  pc.algo = MacAlgo::kKeyedBlake2s;
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                pc);
  DeviceRecord record;
  record.key = crypto::MacKey(pc.algo, test_key());
  record.set_golden(crypto::Hash::digest(
      attest::hash_for(pc.algo), arch.memory().view(arch.app_region(), true)));

  prover.start();
  queue.run_until(Time::zero() + Duration::hours(2));
  EXPECT_EQ(prover.stats().measurements, 12u);

  const auto res = prover.handle_collect(CollectRequest{12});
  const auto report =
      attest::verify_collection(record, res.response, queue.now());
  EXPECT_TRUE(report.device_trustworthy());
  EXPECT_EQ(report.verdicts.size(), 12u);
}

TEST(HydraIntegration, UnbootedHydraCannotMeasure) {
  sim::EventQueue queue;
  hw::HydraArch arch(test_key(), 4096, 16 * kRecordBytes);
  // No secure_boot(): the first scheduled measurement must fault.
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                ProverConfig{});
  prover.start();
  EXPECT_THROW(queue.run_until(Time::zero() + Duration::hours(1)),
               hw::SecurityViolation);
}

TEST(NetworkIntegration, ErasmusOdOverSimulatedUdp) {
  sim::EventQueue queue;
  hw::SmartPlusArch arch(test_key(), 4096, 2048, 16 * kRecordBytes);
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                ProverConfig{});
  DeviceRecord record;
  record.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, test_key());
  record.set_golden(crypto::Hash::digest(
      crypto::HashAlgo::kSha256, arch.memory().view(arch.app_region(), true)));

  net::Network network(queue, Duration::millis(3));
  const net::NodeId vrf = network.add_node({});
  const net::NodeId prv = network.add_node({});
  prover.bind(network, prv);

  std::optional<attest::OdReport> od_report;
  uint64_t sent_treq = 0;
  network.set_handler(vrf, [&](const net::Datagram& d) {
    const auto framed = attest::unframe(d.payload);
    ASSERT_TRUE(framed.has_value());
    ASSERT_EQ(framed->first, attest::MsgType::kOdResponse);
    const auto resp = attest::OdResponse::deserialize(framed->second);
    ASSERT_TRUE(resp.has_value());
    od_report =
        attest::verify_od_response(record, *resp, queue.now(), sent_treq);
  });

  prover.start();
  queue.schedule_at(Time::zero() + Duration::minutes(45), [&] {
    sent_treq = 45 * 60;  // RROC ticks at that moment
    const OdRequest req = attest::make_od_request(record, sent_treq, 3);
    network.send(vrf, prv, attest::frame(attest::MsgType::kOdRequest,
                                         req.serialize()));
  });
  queue.run_until(Time::zero() + Duration::hours(1));

  ASSERT_TRUE(od_report.has_value());
  EXPECT_TRUE(od_report->fresh_valid);
  EXPECT_EQ(od_report->fresh.status, attest::MeasurementStatus::kHealthy);
  EXPECT_EQ(od_report->history.verdicts.size(), 3u);
}

TEST(NetworkIntegration, ForgedOdRequestGetsNoReplyAtAll) {
  // Fig. 4 "abort": rejected requests are silently dropped -- no error
  // message an attacker could use as an oracle or amplifier.
  sim::EventQueue queue;
  hw::SmartPlusArch arch(test_key(), 4096, 2048, 16 * kRecordBytes);
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                ProverConfig{});
  net::Network network(queue, Duration::millis(3));
  size_t replies = 0;
  const net::NodeId attacker =
      network.add_node([&](const net::Datagram&) { ++replies; });
  const net::NodeId prv = network.add_node({});
  prover.bind(network, prv);
  prover.start();

  queue.schedule_at(Time::zero() + Duration::minutes(30), [&] {
    OdRequest req;
    req.treq = 30 * 60;
    req.mac = Bytes(32, 0x42);  // forged
    network.send(attacker, prv,
                 attest::frame(attest::MsgType::kOdRequest, req.serialize()));
  });
  queue.run_until(Time::zero() + Duration::hours(1));
  EXPECT_EQ(replies, 0u);
}

TEST(Composition, IrregularLenientScheduleStillVerifies) {
  // Lenient wrapper around an irregular base: the verifier replays the
  // irregular sequence through the wrapper transparently.
  sim::EventQueue queue;
  hw::SmartPlusArch arch(test_key(), 4096, 1024, 64 * kRecordBytes);
  ProverConfig pc;
  pc.conflict_policy = attest::ConflictPolicy::kAbortAndReschedule;
  auto sched = std::make_unique<attest::LenientScheduler>(
      std::make_unique<attest::IrregularScheduler>(
          test_key(), Duration::minutes(5), Duration::minutes(15)),
      2.0);
  const attest::Scheduler* sched_ptr = sched.get();
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::move(sched), pc);
  DeviceRecord record;
  record.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, test_key());
  record.set_golden(crypto::Hash::digest(
      crypto::HashAlgo::kSha256, arch.memory().view(arch.app_region(), true)));
  const uint64_t t0 = sched_ptr->next_interval(0) / Duration::seconds(1);
  record.scheduler = sched_ptr;
  record.schedule_t0 = t0;

  prover.start();
  queue.run_until(Time::zero() + Duration::hours(6));
  ASSERT_GT(prover.stats().measurements, 20u);
  const auto res = prover.handle_collect(CollectRequest{16});
  const auto report =
      attest::verify_collection(record, res.response, queue.now());
  EXPECT_TRUE(report.device_trustworthy()) << report.note;
}

TEST(MobilityRelay, PacketLevelCollectionOverMovingSwarm) {
  // The full §6 stack: mobility model drives the network's link filter;
  // relay agents flood/relay; the verifier (co-located with device 0)
  // gathers whatever is momentarily reachable, multi-hop, in one
  // deadline-bounded round.
  sim::EventQueue queue;
  swarm::MobilityConfig mc;
  mc.devices = 8;
  mc.field_size = 120.0;
  mc.radio_range = 45.0;
  mc.speed_min = 2.0;
  mc.speed_max = 5.0;
  mc.seed = 17;
  swarm::RandomWaypointMobility mobility(mc);

  net::Network network(queue, Duration::millis(2));
  std::vector<std::unique_ptr<hw::SmartPlusArch>> archs;
  std::vector<std::unique_ptr<Prover>> provers;
  std::vector<std::unique_ptr<overlay::RelayNode>> relay_nodes;
  attest::DeviceDirectory directory;
  for (uint32_t id = 0; id < mc.devices; ++id) {
    Bytes salt{static_cast<uint8_t>(id)};
    const Bytes key = crypto::hkdf(bytes_of("mob-master"), salt,
                                   bytes_of("k"), 32);
    auto arch = std::make_unique<hw::SmartPlusArch>(key, 4096, 1024,
                                                    16 * kRecordBytes);
    auto prover = std::make_unique<Prover>(
        queue, *arch, arch->app_region(), arch->store_region(),
        std::make_unique<attest::RegularScheduler>(Duration::minutes(10)),
        ProverConfig{});
    attest::DeviceRecord record;
    record.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, key);
    record.set_golden(crypto::Hash::digest(
        crypto::HashAlgo::kSha256,
        arch->memory().view(arch->app_region(), true)));
    const net::NodeId node = network.add_node({});
    directory.add(node, std::move(record));
    relay_nodes.push_back(std::make_unique<overlay::RelayNode>(
        queue, network, node, *prover));
    archs.push_back(std::move(arch));
    provers.push_back(std::move(prover));
  }
  const net::NodeId collector_node = network.add_node({});
  overlay::RelayTransportConfig tc;
  tc.flood_memory = std::max(tc.flood_memory,
                             overlay::flood_memory_for(mc.devices));
  overlay::RelayTransport transport(network, collector_node, mc.devices + 1,
                                    tc);
  attest::ServiceConfig sc;
  sc.response_timeout = Duration::seconds(2);
  sc.max_retries = 1;
  sc.window = attest::WindowSpec::parse("fleet");
  sc.keep_audit = false;
  attest::AttestationService service(queue, transport, directory, sc);

  // Collector rides along with device 0; link filter consults the mobility
  // model at every send.
  network.set_link_filter([&](net::NodeId a, net::NodeId b) {
    auto dev = [&](net::NodeId n) {
      return n == collector_node ? swarm::DeviceId{0}
                                 : static_cast<swarm::DeviceId>(n);
    };
    if (a == collector_node || b == collector_node) {
      // Collector hardware shares device 0's radio.
      return dev(a) == 0 || dev(b) == 0 ||
             mobility.connected(dev(a), dev(b), queue.now());
    }
    return mobility.connected(dev(a), dev(b), queue.now());
  });

  for (auto& p : provers) p->start();
  queue.run_until(Time::zero() + Duration::hours(1));

  std::vector<attest::DeviceId> all(mc.devices);
  for (attest::DeviceId id = 0; id < all.size(); ++id) all[id] = id;
  size_t reports = 0;
  size_t healthy = 0;
  for (const auto& o : service.collect_until(
           all, queue.now() + Duration::seconds(30), /*k=*/6)) {
    if (!o.reachable) continue;
    ++reports;
    healthy += o.report.device_trustworthy() && o.report.freshness.has_value();
  }
  const size_t reachable = mobility.snapshot(queue.now()).reachable_from(0);
  // Every device with a path at flood time should have reported (short
  // round, slow relative movement). Allow one straggler whose edge broke.
  EXPECT_GE(reports + 1, reachable);
  EXPECT_EQ(healthy, reports) << "all collected histories verify";
}

TEST(EventQueueStress, RandomWorkloadExecutesInOrder) {
  sim::EventQueue queue;
  sim::Rng rng(99);
  std::vector<uint64_t> executed;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t at = rng.next_below(1'000'000);
    ids.push_back(queue.schedule_at(
        Time(at), [&executed, at] { executed.push_back(at); }));
  }
  // Cancel a random 10%.
  size_t cancelled = 0;
  for (size_t i = 0; i < ids.size(); i += 10) {
    cancelled += queue.cancel(ids[i]);
  }
  queue.run();
  EXPECT_EQ(executed.size(), 2000u - cancelled);
  EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
}

}  // namespace
}  // namespace erasmus
