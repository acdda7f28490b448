// Tests for the runtime energy meter: per-arch charge tables, go-dark
// transition semantics, saturating integer accumulation, fleet totals,
// and thread-count invariance of a metered ShardedFleetRunner (metrics
// and its went_dark trace instants).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "energy/meter.h"
#include "obs/trace.h"
#include "scenario/metrics.h"
#include "scenario/sharded_runner.h"

namespace erasmus {
namespace {

using energy::CostModel;
using energy::DeviceMeter;
using energy::FleetMeter;
using sim::Duration;
using sim::Time;

CostModel model_for(hw::ArchKind arch) {
  return CostModel::for_device(sim::DeviceProfile::msp430_8mhz(),
                               energy::profile_for(arch),
                               crypto::MacAlgo::kHmacSha256,
                               /*attested_bytes=*/2 * 1024);
}

// The runtime charge table must be the analytic ledger's numbers, nJ for
// nJ -- one shared profile_for() so the two models cannot drift.
TEST(EnergyCostModel, MatchesAnalyticLedgerPerArch) {
  const auto device = sim::DeviceProfile::msp430_8mhz();
  for (const hw::ArchKind arch :
       {hw::ArchKind::kSmartPlus, hw::ArchKind::kHydra,
        hw::ArchKind::kTrustLite}) {
    const sim::EnergyProfile& p = energy::profile_for(arch);
    const CostModel m = model_for(arch);
    EXPECT_EQ(m.measurement_nj,
              energy::to_nanojoules(p.active_energy(device.measurement_time(
                  crypto::MacAlgo::kHmacSha256, 2 * 1024))))
        << p.name;
    EXPECT_EQ(m.tx_nj_per_byte,
              energy::to_nanojoules(p.tx_energy_per_byte()))
        << p.name;
    EXPECT_EQ(m.rx_nj_per_byte,
              energy::to_nanojoules(p.rx_energy_per_byte()))
        << p.name;
    EXPECT_EQ(m.sleep_nj_per_s,
              energy::to_nanojoules(p.sleep_energy(Duration::seconds(1))))
        << p.name;
    EXPECT_GT(m.measurement_nj, 0u) << p.name;
    EXPECT_GT(m.tx_nj_per_byte, 0u) << p.name;
  }
  // The application-class Hydra core burns more per measurement than the
  // MSP430-class SMART+ device on the same cycle count.
  EXPECT_GT(model_for(hw::ArchKind::kHydra).measurement_nj,
            model_for(hw::ArchKind::kSmartPlus).measurement_nj);
}

TEST(EnergyUnits, SaturatingConversion) {
  EXPECT_EQ(energy::to_nanojoules(sim::Energy{-5.0}), 0u);
  EXPECT_EQ(energy::to_nanojoules(sim::Energy{0.0}), 0u);
  EXPECT_EQ(energy::to_nanojoules(sim::Energy{1.0}), 1000u);
  EXPECT_EQ(energy::to_nanojoules(sim::Energy{1e300}),
            std::numeric_limits<uint64_t>::max());
  EXPECT_NEAR(energy::from_nanojoules(1234567).microjoules, 1234.567, 1e-9);
}

TEST(DeviceMeter, GoDarkTransitionFiresExactlyOnce) {
  CostModel cost;
  cost.measurement_nj = 400;
  DeviceMeter m(cost, /*capacity_nj=*/1000);

  EXPECT_FALSE(m.charge_measurement(Time::zero()));  // 400
  EXPECT_FALSE(m.charge_measurement(Time::zero()));  // 800
  EXPECT_FALSE(m.dark());
  const Time t = Time::zero() + Duration::seconds(5);
  EXPECT_TRUE(m.charge_measurement(t));  // 1200 >= 1000: the transition
  EXPECT_TRUE(m.dark());
  EXPECT_EQ(m.dark_at(), t);

  // A dark meter absorbs nothing: no further transition, no further spend.
  const uint64_t spent = m.spent_nj();
  EXPECT_FALSE(m.charge_measurement(t + Duration::seconds(1)));
  EXPECT_FALSE(m.charge_tx(1000, t + Duration::seconds(1)));
  EXPECT_FALSE(m.charge_sleep(Duration::hours(10), t));
  EXPECT_EQ(m.spent_nj(), spent);
  EXPECT_EQ(m.dark_at(), t) << "dark_at pinned to the exhausting charge";
}

TEST(DeviceMeter, ZeroCapacityMetersButNeverDarkens) {
  CostModel cost;
  cost.measurement_nj = 1000;
  cost.tx_nj_per_byte = 3;
  cost.rx_nj_per_byte = 2;
  cost.sleep_nj_per_s = 10;
  DeviceMeter m(cost, /*capacity_nj=*/0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(m.charge_measurement(Time::zero()));
  }
  EXPECT_FALSE(m.charge_tx(64, Time::zero()));
  EXPECT_FALSE(m.charge_rx(64, Time::zero()));
  EXPECT_FALSE(m.charge_sleep(Duration::minutes(30), Time::zero()));
  EXPECT_FALSE(m.dark());
  EXPECT_EQ(m.cpu_nj(), 1000u * 1000u);
  EXPECT_EQ(m.tx_nj(), 64u * 3u);
  EXPECT_EQ(m.rx_nj(), 64u * 2u);
  EXPECT_EQ(m.sleep_nj(), 30u * 60u * 10u);
  EXPECT_DOUBLE_EQ(m.remaining_fraction(), 1.0);
}

TEST(DeviceMeter, AccumulationSaturatesInsteadOfWrapping) {
  CostModel cost;
  cost.tx_nj_per_byte = std::numeric_limits<uint64_t>::max() / 2;
  DeviceMeter m(cost, /*capacity_nj=*/0);
  m.charge_tx(2, Time::zero());
  m.charge_tx(2, Time::zero());  // would wrap; must pin at max
  EXPECT_EQ(m.tx_nj(), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(m.spent_nj(), std::numeric_limits<uint64_t>::max());
}

TEST(DeviceMeter, RemainingFraction) {
  CostModel cost;
  cost.measurement_nj = 250;
  DeviceMeter m(cost, /*capacity_nj=*/1000);
  m.charge_measurement(Time::zero());
  EXPECT_DOUBLE_EQ(m.remaining_fraction(), 0.75);
  m.charge_measurement(Time::zero());
  m.charge_measurement(Time::zero());
  m.charge_measurement(Time::zero());  // exhausted exactly
  EXPECT_TRUE(m.dark());
  EXPECT_DOUBLE_EQ(m.remaining_fraction(), 0.0);
}

TEST(FleetMeter, TotalsAndDarkCount) {
  CostModel cost;
  cost.measurement_nj = 600;
  cost.tx_nj_per_byte = 1;
  std::vector<DeviceMeter> meters;
  meters.emplace_back(cost, /*capacity_nj=*/1000);
  meters.emplace_back(cost, /*capacity_nj=*/0);
  FleetMeter fleet(std::move(meters));

  EXPECT_TRUE(fleet.device(0).charge_measurement(
      Time::zero() + Duration::seconds(2)) ||
              fleet.device(0).charge_measurement(
                  Time::zero() + Duration::seconds(2)));
  fleet.device(1).charge_tx(500, Time::zero());
  EXPECT_EQ(fleet.dark_count(), 1u);
  EXPECT_TRUE(fleet.dark(0));
  EXPECT_FALSE(fleet.dark(1));

  const FleetMeter::Totals t = fleet.totals();
  EXPECT_DOUBLE_EQ(t.cpu_mj, 1200.0 / 1e6);
  EXPECT_DOUBLE_EQ(t.tx_mj, 500.0 / 1e6);
  EXPECT_DOUBLE_EQ(t.spent_mj(), (1200.0 + 500.0) / 1e6);
  EXPECT_NEAR(fleet.spent_total().microjoules, 1.7, 1e-9);

  EXPECT_THROW(fleet.device(2), std::out_of_range);
}

// The acceptance-criteria surface: a metered overlay fleet where devices
// actually go dark mid-run must still produce byte-identical JSON metrics
// at 1, 2 and 8 threads.
scenario::ShardedFleetConfig metered_config(size_t threads) {
  swarm::DeviceSpec base;
  base.arch = hw::ArchKind::kSmartPlus;
  base.profile = swarm::default_profile_for(base.arch);
  base.tm = Duration::minutes(4);
  base.app_ram_bytes = 2 * 1024;
  base.store_slots = 64;

  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(24, /*key_seed=*/7, base);
  cfg.plan.mobility.field_size = 200.0;
  cfg.plan.mobility.radio_range = 60.0;
  cfg.plan.mobility.seed = 7;
  cfg.threads = threads;
  cfg.rounds = 3;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 8;
  cfg.backend = scenario::CollectionBackend::kOverlay;
  cfg.overlay.ttl = 8;
  cfg.overlay.net_loss = 0.1;
  cfg.overlay.response_timeout = Duration::seconds(2);
  cfg.overlay.collect_deadline = Duration::seconds(30);
  cfg.energy.metered = true;
  cfg.energy.battery = sim::Energy{30e3};  // 30 mJ: browns out mid-run
  return cfg;
}

TEST(MeteredShardedRunner, DevicesGoDarkDeterministically) {
  auto run_with_threads = [](size_t threads) {
    std::ostringstream out;
    scenario::JsonSink sink(out);
    sink.begin_run("metered");
    scenario::ShardedFleetRunner runner(metered_config(threads));
    const auto rounds = runner.run(sink);
    sink.end_run();
    EXPECT_GT(rounds.back().dark, 0u) << "battery sized to brown out";
    EXPECT_EQ(runner.energy_meter()->dark_count(), rounds.back().dark);
    EXPECT_GT(runner.energy_meter()->totals().spent_mj(), 0.0);
    return out.str();
  };
  const std::string t1 = run_with_threads(1);
  EXPECT_EQ(t1, run_with_threads(2));
  EXPECT_EQ(t1, run_with_threads(8));
  EXPECT_NE(t1.find("\"energy\""), std::string::npos)
      << "metered runs emit the per-round energy table";
}

// The runner's dark sweep traces each browned-out device once, at the
// instant of the charge that emptied its battery, and the trace is the
// same file at any thread count.
TEST(MeteredShardedRunner, EachDarkDeviceTracesOneWentDarkAtItsDarkInstant) {
  auto run_traced = [](size_t threads) {
    obs::TraceRecorder recorder;
    obs::set_global_trace(&recorder);  // the runner picks it up when built
    scenario::NullSink sink;
    scenario::ShardedFleetRunner runner(metered_config(threads));
    obs::set_global_trace(nullptr);
    runner.run(sink);

    const energy::FleetMeter& meter = *runner.energy_meter();
    std::vector<uint64_t> dark;
    for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
      if (meter.dark(id)) dark.push_back(id);
    }
    EXPECT_FALSE(dark.empty()) << "battery sized to brown out";
    std::vector<uint64_t> traced;
    for (const obs::TraceEvent& e : recorder.events()) {
      if (e.name != "went_dark") continue;
      EXPECT_EQ(e.sub, obs::Subsystem::kEnergy);
      if (e.args.empty() || e.args[0].first != "device") {
        ADD_FAILURE() << "went_dark without a leading device arg";
        continue;
      }
      const uint64_t id = std::stoull(e.args[0].second.to_json());
      traced.push_back(id);
      if (id >= runner.size()) {
        ADD_FAILURE() << "went_dark for unknown device " << id;
        continue;
      }
      EXPECT_TRUE(meter.dark(id)) << id;
      EXPECT_EQ(e.at.ns(), meter.device(id).dark_at().ns()) << id;
    }
    std::sort(traced.begin(), traced.end());
    EXPECT_EQ(traced, dark) << "exactly one went_dark per dark device";
    std::ostringstream out;
    recorder.write_chrome_trace(out);
    return out.str();
  };
  EXPECT_EQ(run_traced(1), run_traced(2));
}

// Unmetered runs must not change: no meter, no energy rows, no dark column.
TEST(MeteredShardedRunner, UnmeteredRunsStayEnergySilent) {
  scenario::ShardedFleetConfig cfg = metered_config(1);
  cfg.energy = {};
  std::ostringstream out;
  scenario::JsonSink sink(out);
  sink.begin_run("unmetered");
  scenario::ShardedFleetRunner runner(cfg);
  runner.run(sink);
  sink.end_run();
  EXPECT_EQ(runner.energy_meter(), nullptr);
  EXPECT_EQ(out.str().find("\"energy\""), std::string::npos);
}

}  // namespace
}  // namespace erasmus
