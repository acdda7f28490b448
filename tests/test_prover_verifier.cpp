// End-to-end prover/verifier integration: the ERASMUS measurement and
// collection phases (Fig. 2), ERASMUS+OD (Fig. 4), timing behaviour
// (Table 2), availability policies (§5) and the network binding.
#include <gtest/gtest.h>

#include "attest/directory.h"
#include "attest/prover.h"

namespace erasmus::attest {
namespace {

using crypto::MacAlgo;
using sim::Duration;
using sim::Time;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;  // HMAC-SHA256 records

struct Rig {
  sim::EventQueue queue;
  hw::SmartPlusArch arch;
  Prover prover;
  DeviceRecord record;  // the verifier's view of the device

  explicit Rig(Duration tm = Duration::minutes(10), size_t slots = 16,
               ProverConfig config = {},
               std::unique_ptr<Scheduler> sched = nullptr)
      : arch(test_key(), 4096, /*app_ram=*/2048, slots * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               sched ? std::move(sched)
                     : std::make_unique<RegularScheduler>(tm),
               config),
        record([&] {
          DeviceRecord rec;
          rec.key = crypto::MacKey(config.algo, test_key());
          rec.set_golden(crypto::Hash::digest(
              hash_for(config.algo),
              arch.memory().view(arch.app_region(), true)));
          return rec;
        }()) {}

  void start_and_track_schedule() {
    prover.start();
    const uint64_t t0 =
        prover.scheduler().next_interval(0) / Duration::seconds(1);
    record.scheduler = &prover.scheduler();
    record.schedule_t0 = t0;
  }

  void run_for(Duration d) { queue.run_until(queue.now() + d); }
};

TEST(ProverMeasurement, FollowsRegularSchedule) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::hours(1));
  EXPECT_EQ(rig.prover.stats().measurements, 6u);  // T_M = 10 min
  const auto latest = rig.prover.store().latest(rig.prover.latest_index(), 6);
  ASSERT_EQ(latest.size(), 6u);
  EXPECT_EQ(latest[0].timestamp, 3600u);
  EXPECT_EQ(latest[5].timestamp, 600u);
}

TEST(ProverMeasurement, InitialOffsetStaggersStart) {
  Rig rig;
  rig.prover.start(Duration::minutes(3));
  rig.run_for(Duration::minutes(5));
  EXPECT_EQ(rig.prover.stats().measurements, 1u);
  EXPECT_EQ(rig.prover.store().latest(rig.prover.latest_index(), 1)[0]
                .timestamp,
            180u);
}

TEST(ProverMeasurement, StopCancelsFutureMeasurements) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::minutes(25));
  rig.prover.stop();
  rig.run_for(Duration::hours(2));
  EXPECT_EQ(rig.prover.stats().measurements, 2u);
}

TEST(Collection, HealthyDeviceVerifiesClean) {
  Rig rig;
  rig.start_and_track_schedule();
  rig.run_for(Duration::hours(1));

  const auto res = rig.prover.handle_collect(CollectRequest{6});
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now(), 6);
  EXPECT_FALSE(report.infection_detected);
  EXPECT_FALSE(report.tampering_detected);
  EXPECT_TRUE(report.device_trustworthy());
  ASSERT_TRUE(report.freshness.has_value());
  EXPECT_EQ(report.freshness->ns(), 0u)
      << "collection lands exactly on the measurement instant here";
  EXPECT_EQ(report.missing, 0u);
}

TEST(Collection, FreshnessBoundedByTm) {
  Rig rig;
  rig.start_and_track_schedule();
  rig.run_for(Duration::minutes(65));  // 5 min past the 6th measurement

  const auto res = rig.prover.handle_collect(CollectRequest{3});
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now());
  ASSERT_TRUE(report.freshness.has_value());
  EXPECT_EQ(report.freshness->ns(), Duration::minutes(5).ns());
  EXPECT_LE(report.freshness->ns(), Duration::minutes(10).ns());
}

TEST(Collection, RequiresNoCryptoAndIsFast) {
  // Table 2: ERASMUS collection = construct + send = 0.015 ms on i.MX6.
  ProverConfig pc;
  pc.profile = sim::DeviceProfile::imx6_1ghz();
  Rig rig(Duration::minutes(10), 16, pc);
  rig.prover.start();
  // One minute past a measurement, so the device is idle.
  rig.run_for(Duration::minutes(61));

  const auto res = rig.prover.handle_collect(CollectRequest{6});
  EXPECT_LT(res.processing.to_millis(), 0.1);
  EXPECT_GE(res.processing.to_millis(), 0.015);
}

TEST(Collection, WaitsOutInFlightMeasurement) {
  ProverConfig pc;
  pc.profile = sim::DeviceProfile::imx6_1ghz();
  Rig rig(Duration::minutes(10), 16, pc);
  rig.prover.start();
  rig.run_for(Duration::hours(1));  // collection lands ON a measurement

  const auto res = rig.prover.handle_collect(CollectRequest{6});
  const auto measure_cost = pc.profile.measurement_time(
      MacAlgo::kHmacSha256, rig.prover.attested_bytes());
  EXPECT_GE(res.processing.ns(), measure_cost.ns())
      << "request queued behind the in-flight measurement";
}

TEST(Collection, KClampedToBufferCapacity) {
  Rig rig(Duration::minutes(10), /*slots=*/4);
  rig.prover.start();
  rig.run_for(Duration::hours(2));
  const auto res = rig.prover.handle_collect(CollectRequest{1000});
  EXPECT_EQ(res.response.measurements.size(), 4u);
}

TEST(Collection, InfectionVisibleInHistoryAfterMalwareLeft) {
  // Fig. 1 "infection 2" generalised: malware present across a measurement
  // is detected at the NEXT collection even though it left before it.
  Rig rig;
  rig.start_and_track_schedule();

  rig.queue.schedule_at(Time::zero() + Duration::minutes(25), [&] {
    rig.prover.memory().write(rig.arch.app_region(), 100,
                              bytes_of("EVIL PAYLOAD"), false);
  });
  rig.queue.schedule_at(Time::zero() + Duration::minutes(35), [&] {
    // Restore: covers its tracks, but the t=30min measurement saw it.
    Bytes clean(12, 0);
    rig.prover.memory().write(rig.arch.app_region(), 100, clean, false);
  });
  rig.run_for(Duration::hours(1));

  const auto res = rig.prover.handle_collect(CollectRequest{6});
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now());
  EXPECT_TRUE(report.infection_detected);
  EXPECT_FALSE(report.tampering_detected);
  // Exactly one measurement (t = 30 min) is flagged.
  size_t infected = 0;
  for (const auto& v : report.verdicts) {
    if (v.status == MeasurementStatus::kInfected) {
      ++infected;
      EXPECT_EQ(v.m.timestamp, 1800u);
    }
  }
  EXPECT_EQ(infected, 1u);
}

TEST(Collection, MobileMalwareBetweenMeasurementsEscapes) {
  // Fig. 1 "infection 1": enters and leaves within one T_M window.
  Rig rig;
  rig.start_and_track_schedule();
  rig.queue.schedule_at(Time::zero() + Duration::minutes(11), [&] {
    rig.prover.memory().write(rig.arch.app_region(), 100, bytes_of("EVIL"),
                              false);
  });
  rig.queue.schedule_at(Time::zero() + Duration::minutes(14), [&] {
    rig.prover.memory().write(rig.arch.app_region(), 100, Bytes(4, 0), false);
  });
  rig.run_for(Duration::hours(1));

  const auto res = rig.prover.handle_collect(CollectRequest{6});
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now());
  EXPECT_FALSE(report.infection_detected)
      << "this is exactly the on-demand blind spot ERASMUS narrows via T_M";
  EXPECT_TRUE(report.device_trustworthy());
}

TEST(Collection, CorruptedRecordFlagsTampering) {
  Rig rig;
  rig.start_and_track_schedule();
  rig.run_for(Duration::hours(1));
  rig.prover.store().tamper_corrupt(rig.prover.latest_index(),
                                    kRecordBytes - 1, 0x40);
  const auto res = rig.prover.handle_collect(CollectRequest{6});
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now(), 6);
  EXPECT_TRUE(report.tampering_detected);
  EXPECT_FALSE(report.device_trustworthy());
}

TEST(Collection, ErasedRecordFlagsGapAndShortResponse) {
  Rig rig;
  rig.start_and_track_schedule();
  rig.run_for(Duration::hours(1));
  rig.prover.store().tamper_erase(rig.prover.latest_index() - 2);
  const auto res = rig.prover.handle_collect(CollectRequest{6});
  EXPECT_EQ(res.response.measurements.size(), 5u);
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now(), 6);
  EXPECT_TRUE(report.tampering_detected);
  EXPECT_GE(report.missing, 1u);
}

TEST(Collection, ReorderedRecordsFlagTampering) {
  Rig rig;
  rig.start_and_track_schedule();
  rig.run_for(Duration::hours(1));
  rig.prover.store().tamper_swap(rig.prover.latest_index(),
                                 rig.prover.latest_index() - 1);
  const auto res = rig.prover.handle_collect(CollectRequest{6});
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now(), 6);
  EXPECT_TRUE(report.tampering_detected);
}

TEST(Collection, EmptyResponseBeforeFirstMeasurementIsAnomalous) {
  Rig rig;
  rig.start_and_track_schedule();
  rig.run_for(Duration::minutes(5));  // before the first measurement
  const auto res = rig.prover.handle_collect(CollectRequest{3});
  EXPECT_TRUE(res.response.measurements.empty());
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now());
  EXPECT_FALSE(report.freshness.has_value());
  EXPECT_TRUE(report.tampering_detected) << "no authentic measurement";
}

// --- ERASMUS+OD / on-demand -------------------------------------------------

TEST(OnDemand, AuthenticRequestYieldsFreshMeasurement) {
  Rig rig;
  rig.start_and_track_schedule();
  rig.run_for(Duration::minutes(45));

  const uint64_t now_ticks = rig.prover.rroc().read();
  const OdRequest req = make_od_request(rig.record, now_ticks, 0);
  const auto res = rig.prover.handle_od(req);
  ASSERT_TRUE(res.response.has_value());
  const auto report = verify_od_response(rig.record, 
      *res.response, rig.queue.now(), req.treq);
  EXPECT_TRUE(report.fresh_valid);
  EXPECT_EQ(report.fresh.status, MeasurementStatus::kHealthy);
  EXPECT_TRUE(res.response->history.empty()) << "pure on-demand: k = 0";
}

TEST(OnDemand, ErasmusOdAttachesHistory) {
  Rig rig;
  rig.start_and_track_schedule();
  rig.run_for(Duration::minutes(45));

  const OdRequest req =
      make_od_request(rig.record, rig.prover.rroc().read(), 4);
  const auto res = rig.prover.handle_od(req);
  ASSERT_TRUE(res.response.has_value());
  EXPECT_EQ(res.response->history.size(), 4u);
  const auto report = verify_od_response(rig.record, 
      *res.response, rig.queue.now(), req.treq);
  EXPECT_TRUE(report.fresh_valid);
  EXPECT_FALSE(report.history.infection_detected);
}

TEST(OnDemand, ForgedRequestSilentlyAborted) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::minutes(45));

  OdRequest req;
  req.treq = rig.prover.rroc().read();
  req.k = 0;
  req.mac = Bytes(32, 0xab);  // attacker cannot compute MAC_K
  const auto res = rig.prover.handle_od(req);
  EXPECT_FALSE(res.response.has_value());
  EXPECT_EQ(rig.prover.stats().od_rejected, 1u);
  // Anti-DoS: the reject path never pays the measurement cost.
  EXPECT_LT(res.processing.ns(),
            rig.prover.config().profile
                .measurement_time(MacAlgo::kHmacSha256, 2048).ns());
  // But the check is not free: a collect at the same instant queues
  // behind it, taking exactly the check's time longer than on a twin
  // device that saw no forged request.
  EXPECT_EQ(res.processing, rig.prover.config().profile.request_auth_time());
  Rig twin;
  twin.prover.start();
  twin.run_for(Duration::minutes(45));
  const CollectRequest collect{4};
  EXPECT_EQ(rig.prover.handle_collect(collect).processing,
            twin.prover.handle_collect(collect).processing + res.processing);
}

TEST(OnDemand, StaleRequestRejected) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::hours(1));
  const uint64_t stale = rig.prover.rroc().read() - 100;
  const OdRequest req = make_od_request(rig.record, stale, 0);
  EXPECT_FALSE(rig.prover.handle_od(req).response.has_value());
}

TEST(OnDemand, ReplayRejected) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::hours(1));
  const OdRequest req =
      make_od_request(rig.record, rig.prover.rroc().read(), 0);
  EXPECT_TRUE(rig.prover.handle_od(req).response.has_value());
  EXPECT_FALSE(rig.prover.handle_od(req).response.has_value())
      << "t_req watermark must advance";
  EXPECT_EQ(rig.prover.stats().od_rejected, 1u);
}

TEST(OnDemand, FutureTimestampRejected) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::hours(1));
  const OdRequest req =
      make_od_request(rig.record, rig.prover.rroc().read() + 50, 0);
  EXPECT_FALSE(rig.prover.handle_od(req).response.has_value());
}

TEST(OnDemand, CostDominatedByMeasurement) {
  // Table 2: ERASMUS+OD collection ~= measurement time (285.6 ms for 10 MB
  // BLAKE2s); plain ERASMUS collection is ~0.015 ms. Factor >= 3000.
  sim::EventQueue queue;
  // 1 MiB attested memory on the HYDRA profile: measurement ~28 ms vs.
  // collection ~0.015 ms (the paper's 10 MB gives factor >3000; scaled
  // down here to keep the unit test quick, factor stays >100).
  hw::SmartPlusArch arch(test_key(), 4096, 1 << 20, 16 * kRecordBytes);
  ProverConfig pc;
  pc.profile = sim::DeviceProfile::imx6_1ghz();
  pc.algo = MacAlgo::kKeyedBlake2s;
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<RegularScheduler>(Duration::minutes(10)),
                pc);
  DeviceRecord record;
  record.key = crypto::MacKey(pc.algo, test_key());
  record.set_golden(crypto::Hash::digest(
      hash_for(pc.algo), arch.memory().view(arch.app_region(), true)));

  prover.start();
  queue.run_until(Time::zero() + Duration::minutes(61));  // idle instant

  const auto collect = prover.handle_collect(CollectRequest{6});
  const OdRequest req = make_od_request(record, prover.rroc().read(), 6);
  const auto od = prover.handle_od(req);
  ASSERT_TRUE(od.response.has_value());
  EXPECT_GT(od.processing.ns() / collect.processing.ns(), 100u);
}

// --- Availability (§5) -------------------------------------------------------

TEST(Availability, MeasureAnywayStealsTaskTime) {
  ProverConfig pc;
  pc.conflict_policy = ConflictPolicy::kMeasureAnyway;
  Rig rig(Duration::minutes(10), 16, pc);
  rig.prover.start();
  // Critical task covering the first measurement instant.
  rig.prover.add_critical_task(Time::zero() + Duration::minutes(9),
                               Duration::minutes(2));
  rig.run_for(Duration::minutes(30));
  EXPECT_EQ(rig.prover.stats().measurements, 3u);
  EXPECT_GT(rig.prover.stats().task_interference.ns(), 0u);
}

TEST(Availability, SkipPolicyDropsConflictedMeasurement) {
  ProverConfig pc;
  pc.conflict_policy = ConflictPolicy::kSkip;
  Rig rig(Duration::minutes(10), 16, pc);
  rig.prover.start();
  rig.prover.add_critical_task(Time::zero() + Duration::minutes(9),
                               Duration::minutes(2));
  rig.run_for(Duration::minutes(30));
  EXPECT_EQ(rig.prover.stats().skipped, 1u);
  EXPECT_EQ(rig.prover.stats().measurements, 2u);
  EXPECT_EQ(rig.prover.stats().task_interference.ns(), 0u);
}

TEST(Availability, LenientPolicyReschedulesWithinWindow) {
  ProverConfig pc;
  pc.conflict_policy = ConflictPolicy::kAbortAndReschedule;
  auto lenient = std::make_unique<LenientScheduler>(
      std::make_unique<RegularScheduler>(Duration::minutes(10)), 2.0);
  Rig rig(Duration::minutes(10), 16, pc, std::move(lenient));
  rig.prover.start();
  rig.prover.add_critical_task(Time::zero() + Duration::minutes(9),
                               Duration::minutes(2));
  // Deferral shifts the whole chain by 1 min: measurements at 11/21/31.
  rig.run_for(Duration::minutes(32));
  EXPECT_EQ(rig.prover.stats().aborted, 1u);
  EXPECT_EQ(rig.prover.stats().measurements, 3u)
      << "deferred, not dropped";
  EXPECT_EQ(rig.prover.stats().task_interference.ns(), 0u);
  EXPECT_GT(rig.prover.stats().max_schedule_slip.ns(), 0u);
  EXPECT_LE(rig.prover.stats().max_schedule_slip.ns(),
            Duration::minutes(10).ns());  // within (w-1)*T_M
}

// --- Irregular schedule end-to-end -------------------------------------------

TEST(IrregularIntegration, VerifierReplaysScheduleWithoutFalseAlarms) {
  ProverConfig pc;
  auto sched = std::make_unique<IrregularScheduler>(
      test_key(), Duration::minutes(5), Duration::minutes(15));
  Rig rig(Duration::minutes(10), 32, pc, std::move(sched));
  rig.start_and_track_schedule();
  rig.run_for(Duration::hours(4));
  ASSERT_GT(rig.prover.stats().measurements, 10u);

  const auto res = rig.prover.handle_collect(CollectRequest{10});
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now(), 10);
  EXPECT_FALSE(report.tampering_detected) << report.note;
  EXPECT_FALSE(report.infection_detected);
}

// --- Network binding ----------------------------------------------------------

TEST(NetworkBinding, CollectOverSimulatedUdp) {
  Rig rig;
  rig.start_and_track_schedule();

  net::Network network(rig.queue, Duration::millis(2));
  const net::NodeId verifier_node = network.add_node({});
  const net::NodeId prover_node = network.add_node({});
  rig.prover.bind(network, prover_node);

  std::optional<CollectionReport> report;
  network.set_handler(verifier_node, [&](const net::Datagram& d) {
    const auto framed = unframe(d.payload);
    ASSERT_TRUE(framed.has_value());
    ASSERT_EQ(framed->first, MsgType::kCollectResponse);
    const auto resp = CollectResponse::deserialize(framed->second);
    ASSERT_TRUE(resp.has_value());
    report = verify_collection(rig.record, *resp, rig.queue.now());
  });

  rig.queue.schedule_at(Time::zero() + Duration::hours(1), [&] {
    network.send(verifier_node, prover_node,
                 frame(MsgType::kCollectRequest,
                       CollectRequest{6}.serialize()));
  });
  // The prover's timer re-arms forever; run a bounded window that covers
  // request latency + prover processing + response latency.
  rig.queue.run_until(Time::zero() + Duration::hours(1) +
                      Duration::seconds(10));

  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->device_trustworthy());
  EXPECT_EQ(network.stats().delivered, 2u);
}

TEST(NetworkBinding, MalformedDatagramIgnored) {
  Rig rig;
  rig.prover.start();
  net::Network network(rig.queue, Duration::millis(2));
  const net::NodeId sender = network.add_node({});
  const net::NodeId prover_node = network.add_node({});
  rig.prover.bind(network, prover_node);
  network.send(sender, prover_node, Bytes{0xff, 0x00, 0x01});
  rig.queue.run_until(Time::zero() + Duration::hours(1));
  EXPECT_EQ(rig.prover.stats().collections, 0u);
}

}  // namespace
}  // namespace erasmus::attest
