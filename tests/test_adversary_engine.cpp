// Tests for the adversary engine: loud knob parsing, deterministic
// itinerary planning, the T_M-vs-dwell detection claim end-to-end through
// the sharded runner, thread-count byte identity with an active campaign,
// and the adversarial/generic counter split on the relay layer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

TEST(AdversaryParse, ModeNamesParseAndTyposThrowLoudly) {
  EXPECT_EQ(adversary::parse_mode("off"), adversary::Mode::kOff);
  EXPECT_EQ(adversary::parse_mode("roaming"), adversary::Mode::kRoaming);
  EXPECT_EQ(adversary::parse_mode("relay"), adversary::Mode::kRelay);
  EXPECT_EQ(adversary::parse_mode("sybil"), adversary::Mode::kSybil);
  try {
    adversary::parse_mode("banana");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos)
        << "the error must name the offending value";
  }
}

TEST(AdversaryParse, MigrationNamesParseAndTyposThrowLoudly) {
  EXPECT_EQ(adversary::parse_migration("random"),
            adversary::Migration::kRandomWalk);
  EXPECT_EQ(adversary::parse_migration("aware"),
            adversary::Migration::kAware);
  EXPECT_EQ(adversary::parse_migration("dwell"),
            adversary::Migration::kDwellBound);
  EXPECT_THROW(adversary::parse_migration("awre"), std::invalid_argument);
  EXPECT_THROW(adversary::parse_migration(""), std::invalid_argument);
}

ShardedFleetConfig adversary_config(size_t threads, Duration tm) {
  swarm::DeviceSpec base;
  base.tm = tm;
  base.app_ram_bytes = 1024;
  base.store_slots = 16;

  ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(24, /*key_seed=*/42, base);
  cfg.plan.mobility.field_size = 120.0;
  cfg.plan.mobility.radio_range = 50.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = threads;
  cfg.rounds = 4;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 4;

  cfg.adversary.mode = adversary::Mode::kRoaming;
  cfg.adversary.migration = adversary::Migration::kAware;
  cfg.adversary.dwell = Duration::minutes(12);
  cfg.adversary.chains = 3;
  cfg.adversary.seed = 42;
  return cfg;
}

constexpr adversary::Migration kMigrations[] = {
    adversary::Migration::kRandomWalk, adversary::Migration::kAware,
    adversary::Migration::kDwellBound};

TEST(AdversaryEngine, ItineraryIsAPureFunctionOfItsInputs) {
  for (const adversary::Migration migration : kMigrations) {
    SCOPED_TRACE(static_cast<int>(migration));
    ShardedFleetConfig cfg = adversary_config(1, Duration::minutes(6));
    cfg.adversary.migration = migration;
    const auto specs = cfg.plan.expand();
    const Time horizon = Time::zero() + cfg.round_interval * cfg.rounds;
    const adversary::Engine a(cfg.adversary, specs, /*root=*/0, horizon);
    const adversary::Engine b(cfg.adversary, specs, /*root=*/0, horizon);
    const std::vector<adversary::Leg>& legs = a.legs();
    ASSERT_EQ(legs.size(), b.legs().size());
    ASSERT_GT(legs.size(), cfg.adversary.chains) << "chains must migrate";
    for (size_t i = 0; i < legs.size(); ++i) {
      EXPECT_EQ(legs[i].chain, b.legs()[i].chain);
      EXPECT_EQ(legs[i].device, b.legs()[i].device);
      EXPECT_EQ(legs[i].enter, b.legs()[i].enter);
      EXPECT_EQ(legs[i].leave, b.legs()[i].leave);
    }
    const Duration dwell = cfg.adversary.dwell;
    for (size_t i = 0; i < legs.size(); ++i) {
      const adversary::Leg& leg = legs[i];
      EXPECT_NE(leg.device, 0u) << "the root/collector is never infected";
      EXPECT_LT(leg.enter, leg.leave);
      const Duration stay = leg.leave - leg.enter;
      if (migration == adversary::Migration::kRandomWalk) {
        EXPECT_EQ(stay, dwell) << "leg " << i;
      } else if (migration == adversary::Migration::kDwellBound) {
        EXPECT_GE(stay.ns(), dwell.ns() / 2) << "leg " << i;
        EXPECT_LE(stay, dwell) << "leg " << i;
      }
      // A chain's legs are contiguous in plan order; each hop moves on.
      if (i + 1 < legs.size() && legs[i + 1].chain == leg.chain) {
        EXPECT_NE(legs[i + 1].device, leg.device) << "leg " << i;
      }
      // No host ever carries two residencies at once.
      for (size_t j = i + 1; j < legs.size(); ++j) {
        if (legs[j].device != leg.device) continue;
        EXPECT_TRUE(legs[j].leave <= leg.enter || leg.leave <= legs[j].enter)
            << "legs " << i << " and " << j << " overlap on host "
            << leg.device;
      }
    }
  }
}

TEST(AdversaryEngine, CompromisedFractionOutsideTheUnitIntervalRejected) {
  ShardedFleetConfig cfg = adversary_config(1, Duration::minutes(6));
  cfg.adversary.mode = adversary::Mode::kRelay;
  const auto specs = cfg.plan.expand();
  const Time horizon = Time::zero() + cfg.round_interval * cfg.rounds;
  for (const double bad : {-1.0, 7.0, std::nan("")}) {
    cfg.adversary.compromised_fraction = bad;
    EXPECT_THROW(adversary::Engine(cfg.adversary, specs, 0, horizon),
                 std::invalid_argument)
        << bad;
  }
  cfg.adversary.compromised_fraction = 7.0;
  try {
    adversary::Engine(cfg.adversary, specs, 0, horizon);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("got 7"), std::string::npos)
        << "the error must name the value: " << e.what();
  }
  for (const double ok : {0.0, 1.0}) {
    cfg.adversary.compromised_fraction = ok;
    EXPECT_NO_THROW(adversary::Engine(cfg.adversary, specs, 0, horizon));
  }
}

TEST(AdversaryEngine, AwareMalwareEvadesSparseScheduleAndTightOneCatchesIt) {
  // T_M = 30m >> dwell 12m: the staggered fleet always offers a safe host.
  {
    NullSink sink;
    ShardedFleetRunner runner(adversary_config(1, Duration::minutes(30)));
    runner.run(sink);
    const adversary::Engine& e = *runner.adversary_engine();
    EXPECT_EQ(e.detected_chains(), 0u);
    EXPECT_EQ(e.captures_total(), 0u);
    EXPECT_GE(e.migrations_total(), 1u);
  }
  // T_M = 6m << dwell 12m: no host has enough slack; after the evasion
  // budget the malware sits through a measurement and is detected.
  {
    NullSink sink;
    ShardedFleetRunner runner(adversary_config(1, Duration::minutes(6)));
    runner.run(sink);
    const adversary::Engine& e = *runner.adversary_engine();
    EXPECT_GT(e.detected_chains(), 0u);
    EXPECT_GT(e.captures_total(), 0u);
    EXPECT_GT(e.mean_detection_latency().ns(), 0u);
    EXPECT_EQ(e.detection_probability(),
              static_cast<double>(e.detected_chains()) /
                  static_cast<double>(e.chain_count()));
  }
}

TEST(AdversaryEngine, CampaignMetricsByteIdenticalAcrossThreadCounts) {
  for (const adversary::Migration migration : kMigrations) {
    SCOPED_TRACE(static_cast<int>(migration));
    auto run_with_threads = [migration](size_t threads) {
      std::ostringstream out;
      JsonSink sink(out);
      sink.begin_run("adversary-determinism");
      ShardedFleetConfig cfg = adversary_config(threads, Duration::minutes(6));
      cfg.adversary.migration = migration;
      ShardedFleetRunner runner(cfg);
      runner.run(sink);
      sink.end_run();
      return out.str();
    };
    const std::string t1 = run_with_threads(1);
    const std::string t3 = run_with_threads(3);
    EXPECT_EQ(t1, t3);
    // The run actually exercised the campaign path.
    EXPECT_NE(t1.find("\"adversary\""), std::string::npos);
    EXPECT_NE(t1.find("\"detections\""), std::string::npos);
  }
}

ShardedFleetConfig relay_config(adversary::Mode mode) {
  ShardedFleetConfig cfg = adversary_config(1, Duration::minutes(10));
  cfg.backend = CollectionBackend::kOverlay;
  cfg.overlay.collect_deadline = Duration::seconds(25);
  cfg.adversary.mode = mode;
  cfg.adversary.compromised_fraction = 0.2;
  return cfg;
}

TEST(RelayAdversary, AdversarialDropsStayOutOfTheCongestionCounter) {
  NullSink sink;
  ShardedFleetRunner runner(relay_config(adversary::Mode::kRelay));
  runner.run(sink);
  const auto totals = runner.overlay_totals();
  EXPECT_GT(totals.dropped_adversarial, 0u)
      << "compromised relays must actually drop relayed reports";
  EXPECT_EQ(totals.reports_dropped, 0u)
      << "adversarial drops must not masquerade as queue overflow";
  EXPECT_EQ(totals.sybil_injected, 0u);
}

TEST(RelayAdversary, SybilFloodIsCountedAndRejectedByOriginRange) {
  NullSink sink;
  ShardedFleetRunner runner(relay_config(adversary::Mode::kSybil));
  runner.run(sink);
  const auto totals = runner.overlay_totals();
  EXPECT_GT(totals.sybil_injected, 0u);
  EXPECT_GT(totals.spoofed_rejected, 0u)
      << "forged origins lie outside the node-id range and must be "
         "rejected before touching the route cache";
  EXPECT_EQ(totals.dropped_adversarial, 0u);
}

TEST(AdversaryEngine, OffModeLeavesRunnerOutputUntouched) {
  auto run_json = [](bool with_off_adversary) {
    ShardedFleetConfig cfg = adversary_config(1, Duration::minutes(10));
    cfg.adversary = adversary::EngineConfig{};
    cfg.adversary.mode = adversary::Mode::kOff;
    if (with_off_adversary) {
      // Same config either way -- the point is that a default EngineConfig
      // is inert; engine construction is skipped entirely.
      cfg.adversary.dwell = Duration::minutes(7);  // ignored while off
    }
    std::ostringstream out;
    JsonSink sink(out);
    sink.begin_run("off");
    ShardedFleetRunner runner(cfg);
    runner.run(sink);
    sink.end_run();
    return out.str();
  };
  const std::string a = run_json(false);
  const std::string b = run_json(true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("\"adversary\""), std::string::npos)
      << "no adversary table when the engine is off";
}

}  // namespace
}  // namespace erasmus::scenario
