// Paper-claims integration suite: one test per falsifiable claim the paper
// makes, each exercised end-to-end through the public API. This is the
// repository's executable summary of EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "analysis/detection.h"
#include "attest/directory.h"
#include "attest/prover.h"
#include "attest/qoa.h"
#include "hw/code_size.h"
#include "hw/synthesis.h"
#include "malware/campaign.h"
#include "malware/malware.h"
#include "swarm/mobility.h"
#include "swarm/protocols.h"

namespace erasmus {
namespace {

using attest::CollectRequest;
using attest::DeviceRecord;
using attest::Prover;
using attest::ProverConfig;
using attest::RegularScheduler;
using crypto::MacAlgo;
using sim::Duration;
using sim::Time;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

struct Rig {
  sim::EventQueue queue;
  hw::SmartPlusArch arch;
  Prover prover;
  DeviceRecord record;

  explicit Rig(ProverConfig pc = {}, size_t app_bytes = 2048)
      : arch(test_key(), 4096, app_bytes, 32 * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<RegularScheduler>(Duration::minutes(10)),
               pc),
        record([&] {
          DeviceRecord rec;
          rec.key = crypto::MacKey(pc.algo, test_key());
          rec.set_golden(crypto::Hash::digest(
              attest::hash_for(pc.algo),
              arch.memory().view(arch.app_region(), true)));
          return rec;
        }()) {}
};

// §Abstract/§3: "verifier imposes only negligible real-time burden on
// prover" -- collection costs no cryptography and finishes in microseconds
// even while measurement costs hundreds of ms.
TEST(PaperClaims, CollectionBurdenNegligible) {
  ProverConfig pc;
  pc.profile = sim::DeviceProfile::imx6_1ghz();
  pc.algo = MacAlgo::kKeyedBlake2s;
  Rig rig(pc, 1 << 20);
  rig.prover.start();
  rig.queue.run_until(Time::zero() + Duration::minutes(61));

  const auto collect = rig.prover.handle_collect(CollectRequest{6});
  const auto measurement_cost = pc.profile.measurement_time(pc.algo, 1 << 20);
  EXPECT_LT(collect.processing.ns() * 100, measurement_cost.ns());
}

// §Abstract: "strictly better quality-of-service than prior attestation
// techniques, because verifier obtains prover's entire history" -- one
// collection sees every measurement since the last one.
TEST(PaperClaims, CollectionReturnsEntireHistorySinceLast) {
  Rig rig;
  rig.prover.start();
  rig.queue.run_until(Time::zero() + Duration::hours(2));
  const auto res = rig.prover.handle_collect(CollectRequest{12});
  ASSERT_EQ(res.response.measurements.size(), 12u);
  for (size_t i = 0; i + 1 < 12; ++i) {
    EXPECT_EQ(res.response.measurements[i].timestamp,
              res.response.measurements[i + 1].timestamp + 600);
  }
}

// §3: ERASMUS "de-couples frequency of prover checking from frequency of
// prover measurements" -- changing T_C does not change what the prover does.
TEST(PaperClaims, TcIndependentOfProverBehaviour) {
  Rig a, b;
  a.prover.start();
  b.prover.start();
  // a collected every 30 min, b once at the end.
  for (int i = 1; i <= 4; ++i) {
    a.queue.run_until(Time::zero() + Duration::minutes(30) * i);
    (void)a.prover.handle_collect(CollectRequest{4});
  }
  b.queue.run_until(Time::zero() + Duration::hours(2));
  EXPECT_EQ(a.prover.stats().measurements, b.prover.stats().measurements);
  EXPECT_EQ(a.prover.stats().total_measurement_time.ns(),
            b.prover.stats().total_measurement_time.ns());
}

// §3: "no need to authenticate verifier's requests" for plain collection --
// an unauthenticated (even attacker-sent) collect triggers no computation,
// so there is no DoS amplification.
TEST(PaperClaims, CollectionHasNoDosSurface) {
  Rig rig;
  rig.prover.start();
  rig.queue.run_until(Time::zero() + Duration::minutes(61));
  const auto before = rig.prover.stats().total_measurement_time;
  for (int i = 0; i < 1000; ++i) {
    (void)rig.prover.handle_collect(CollectRequest{16});
  }
  EXPECT_EQ(rig.prover.stats().total_measurement_time.ns(), before.ns())
      << "1000 unauthenticated collects triggered zero crypto work";
}

// §3.1: freshness f in [0, T_M], expected T_M/2 over random collection
// phases.
TEST(PaperClaims, FreshnessAveragesHalfTm) {
  Rig rig;
  rig.prover.start();
  const uint64_t t0 =
      rig.prover.scheduler().next_interval(0) / Duration::seconds(1);
  rig.record.scheduler = &rig.prover.scheduler();
  rig.record.schedule_t0 = t0;

  sim::Rng rng(5);
  uint64_t freshness_sum = 0;
  size_t samples = 0;
  Time at = Time::zero() + Duration::hours(1);
  for (int i = 0; i < 200; ++i) {
    at = at + Duration(rng.next_below(Duration::minutes(30).ns()));
    rig.queue.run_until(at);
    const auto res = rig.prover.handle_collect(CollectRequest{4});
    const auto report =
        attest::verify_collection(rig.record, res.response, rig.queue.now());
    ASSERT_TRUE(report.freshness.has_value());
    EXPECT_LE(report.freshness->ns(), Duration::minutes(10).ns());
    freshness_sum += report.freshness->ns();
    ++samples;
  }
  const double mean = static_cast<double>(freshness_sum) / samples;
  EXPECT_NEAR(mean, static_cast<double>(Duration::minutes(5).ns()),
              static_cast<double>(Duration::minutes(1).ns()));
}

// §4.1/Fig. 6: measurement run-time linear in memory, ERASMUS ~= on-demand
// (difference is exactly the request-authentication overhead).
TEST(PaperClaims, Fig6ShapeLinearAndErasmusNoSlower) {
  const auto p = sim::DeviceProfile::msp430_8mhz();
  for (auto algo : {MacAlgo::kHmacSha256, MacAlgo::kKeyedBlake2s}) {
    const double t2 = p.measurement_time(algo, 2048).to_seconds();
    const double t4 = p.measurement_time(algo, 4096).to_seconds();
    const double t8 = p.measurement_time(algo, 8192).to_seconds();
    EXPECT_NEAR(t8 - t4, 2 * (t4 - t2), 0.05 * t8);  // linear
    EXPECT_LE(p.measurement_time(algo, 8192).ns(),
              p.ondemand_time(algo, 8192).ns());
  }
}

// Table 1: "ERASMUS requires slightly less ROM than on-demand attestation"
// (SMART+), and ~1% more on HYDRA (timer driver).
TEST(PaperClaims, Table1RomOrderings) {
  using hw::ArchKind;
  using hw::AttestMode;
  const auto& smart = hw::CodeSizeModel::for_arch(ArchKind::kSmartPlus);
  for (auto algo : crypto::all_mac_algos()) {
    EXPECT_LT(*smart.executable_kb(AttestMode::kErasmus, algo),
              *smart.executable_kb(AttestMode::kOnDemand, algo));
  }
  const auto& hydra = hw::CodeSizeModel::for_arch(ArchKind::kHydra);
  const double od =
      *hydra.executable_kb(AttestMode::kOnDemand, MacAlgo::kHmacSha256);
  const double er =
      *hydra.executable_kb(AttestMode::kErasmus, MacAlgo::kHmacSha256);
  EXPECT_NEAR((er - od) / od, 0.01, 0.005);
}

// §4.1: "ERASMUS utilizes the same amount of registers and look-up tables
// as the on-demand attestation" and ~13%/14% over the unmodified core.
TEST(PaperClaims, SynthesisOverheads) {
  EXPECT_NEAR(hw::register_overhead_pct(), 13.0, 1.0);
  EXPECT_NEAR(hw::lut_overhead_pct(), 14.0, 1.0);
}

// Table 2: collection >= 3000x cheaper than the measurement it replaces
// (10 MB, BLAKE2s, i.MX6).
TEST(PaperClaims, Table2Factor3000) {
  const auto p = sim::DeviceProfile::imx6_1ghz();
  const auto collection = p.packet_construct + p.packet_send;
  const auto measurement =
      p.mac_time(MacAlgo::kKeyedBlake2s, 10ull << 20);
  EXPECT_GE(measurement.ns() / collection.ns(), 3000u);
}

// §1/§3: mobile malware that leaves before the next measurement escapes;
// with dwell > T_M it cannot.
TEST(PaperClaims, MobileMalwareDetectionBoundary) {
  for (const auto& [dwell_min, expect_detect] :
       std::vector<std::pair<uint64_t, bool>>{{3, false}, {25, true}}) {
    Rig rig;
    rig.prover.start();
    malware::MobileMalware mw(rig.queue, rig.prover);
    mw.schedule(Time::zero() + Duration::minutes(11),
                Duration::minutes(dwell_min));
    rig.queue.run_until(Time::zero() + Duration::hours(1));
    const auto res = rig.prover.handle_collect(CollectRequest{6});
    const auto report =
        attest::verify_collection(rig.record, res.response, rig.queue.now());
    EXPECT_EQ(report.infection_detected, expect_detect)
        << "dwell=" << dwell_min << " min";
  }
}

// §3.5: irregular intervals strictly improve detection of schedule-aware
// malware (analytics + Monte Carlo agree).
TEST(PaperClaims, IrregularBeatsRegularForAwareMalware) {
  const Duration dwell = Duration::minutes(8);
  const double reg = attest::detection_prob_schedule_aware_regular(
      dwell, Duration::minutes(10));
  const double irr = attest::detection_prob_schedule_aware_irregular(
      dwell, Duration::minutes(5), Duration::minutes(15));
  const double irr_mc = analysis::mc_detection_schedule_aware_irregular(
      dwell, Duration::minutes(5), Duration::minutes(15), 100'000, 3);
  EXPECT_EQ(reg, 0.0);
  EXPECT_GT(irr, 0.25);
  EXPECT_NEAR(irr, irr_mc, 0.01);
}

// §6: ERASMUS tolerates mobility that breaks on-demand swarm attestation.
TEST(PaperClaims, SwarmMobilityAdvantage) {
  double od_total = 0, er_total = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    swarm::MobilityConfig mc;
    mc.devices = 20;
    mc.field_size = 100.0;
    mc.radio_range = 40.0;
    mc.speed_min = 6.0;
    mc.speed_max = 12.0;
    mc.seed = seed;
    swarm::RandomWaypointMobility mob(mc);
    swarm::SwarmProtocolConfig pc;
    pc.measurement_time = Duration::seconds(7);
    const Time t0 = Time::zero() + Duration::minutes(1);
    od_total += swarm::run_ondemand_round(mob, t0, 0, pc).coverage();
    er_total += swarm::run_erasmus_collection_round(mob, t0, 0, pc).coverage();
  }
  EXPECT_GT(er_total, od_total * 1.3);
}

// §5: a 10 KB measurement at 8 MHz takes ~7 s -- the availability concern
// motivating lenient scheduling is real in our model.
TEST(PaperClaims, SevenSecondMeasurementAt8Mhz) {
  const auto p = sim::DeviceProfile::msp430_8mhz();
  const double secs =
      p.mac_time(MacAlgo::kHmacSha256, 10 * 1024).to_seconds();
  EXPECT_GT(secs, 6.0);
  EXPECT_LT(secs, 8.0);
}

}  // namespace
}  // namespace erasmus
