// Tests for the sharded fleet runner, above all its headline guarantee:
// for a fixed seed, metrics are bit-for-bit identical at any thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

ShardedFleetConfig small_config(size_t threads) {
  swarm::DeviceSpec base;
  base.tm = Duration::minutes(10);
  base.app_ram_bytes = 1024;
  base.store_slots = 16;

  ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(24, /*key_seed=*/42, base);
  cfg.plan.mobility.field_size = 120.0;
  cfg.plan.mobility.radio_range = 50.0;
  cfg.plan.mobility.speed_min = 4.0;
  cfg.plan.mobility.speed_max = 9.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = threads;
  cfg.rounds = 4;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 4;
  return cfg;
}

std::string run_to_json(ShardedFleetConfig cfg, bool infect = true) {
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin_run("determinism");
  ShardedFleetRunner runner(cfg);
  if (infect) {
    runner.schedule_on_device(
        7, Time::zero() + Duration::minutes(35), [](attest::Prover& p) {
          p.memory().write(p.attested_region(), 16, bytes_of("IMPLANT"),
                           false);
        });
  }
  runner.run(sink);
  sink.end_run();
  return out.str();
}

TEST(ShardedFleetRunner, DeterministicAcross1_2_8Threads) {
  const std::string t1 = run_to_json(small_config(1));
  const std::string t2 = run_to_json(small_config(2));
  const std::string t8 = run_to_json(small_config(8));
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  // And the run is not trivially empty: the infected device gets flagged.
  EXPECT_NE(t1.find("\"flagged\": 1"), std::string::npos) << t1;
}

ShardedFleetConfig overlay_config(size_t threads) {
  ShardedFleetConfig cfg = small_config(threads);
  cfg.backend = CollectionBackend::kOverlay;
  cfg.overlay.collect_deadline = Duration::seconds(25);
  return cfg;
}

TEST(ShardedFleetRunner, OverlayBackendDeterministicAcrossThreads) {
  // The tentpole guarantee extended to packet-level collection: floods,
  // store-and-forward relays and retries all run on the coordinator
  // clock, so the radio traffic cannot see the shard layout.
  const std::string t1 = run_to_json(overlay_config(1));
  const std::string t2 = run_to_json(overlay_config(2));
  const std::string t8 = run_to_json(overlay_config(8));
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  EXPECT_NE(t1.find("\"flagged\": 1"), std::string::npos) << t1;
  EXPECT_NE(t1.find("\"overlay\""), std::string::npos)
      << "overlay backend must emit its per-round stats table";
  EXPECT_NE(t1.find("\"hops\""), std::string::npos);
}

TEST(ShardedFleetRunner, OverlayBackendActuallyRelaysMultiHop) {
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin_run("overlay");
  ShardedFleetRunner runner(overlay_config(2));
  const auto rounds = runner.run(sink);
  sink.end_run();

  size_t collected = 0;
  for (const auto& r : rounds) collected += r.reachable;
  EXPECT_GT(collected, 0u);

  const auto totals = runner.overlay_totals();
  EXPECT_GT(totals.floods_forwarded, 0u) << "flood must propagate";
  uint64_t reports = 0;
  uint64_t beyond_first_hop = 0;
  for (size_t h = 0; h < totals.hops.size(); ++h) {
    reports += totals.hops[h];
    if (h > 0) beyond_first_hop += totals.hops[h];
  }
  // >=, not ==: a slow response racing its own retry can land two
  // transport-accepted reports for one session (the second is a service
  // stray), but never fewer than one per collected device.
  EXPECT_GE(reports, collected)
      << "every accepted report lands in the hop histogram";
  EXPECT_GT(beyond_first_hop, 0u)
      << "a 120 m field with 50 m radios needs real multi-hop";
}

TEST(ShardedFleetRunner, OverlayFloodsLinkCheckOnlyTheSendersNeighbourhood) {
  // Twelve radio ranges across: a sender's 3x3 grid block is a small
  // share of the field, so each flood is offered to every node but
  // link-checked against only a few of them.
  ShardedFleetConfig cfg = overlay_config(2);
  const swarm::MobilityConfig mobility = cfg.plan.mobility;
  swarm::DeviceSpec base;
  base.app_ram_bytes = 1024;
  base.store_slots = 16;
  cfg.plan = swarm::FleetPlan::uniform(200, /*key_seed=*/42, base);
  cfg.plan.mobility = mobility;
  cfg.plan.mobility.field_size = 600.0;
  cfg.rounds = 1;
  NullSink sink;
  ShardedFleetRunner runner(cfg);
  runner.run(sink);
  const net::Network::Stats& net = runner.overlay_network()->stats();
  EXPECT_GT(net.transmissions, 0u);
  EXPECT_LT(net.link_checks * 3, net.sent);
}

TEST(ShardedFleetRunner, MoreThreadsThanDevicesClampsToFleetSize) {
  ShardedFleetConfig cfg = small_config(64);
  cfg.plan.set_devices(3);
  cfg.plan.mobility.radio_range = 500.0;  // fully connected
  const std::string wide = run_to_json(cfg, /*infect=*/false);
  cfg.threads = 1;
  EXPECT_EQ(run_to_json(cfg, /*infect=*/false), wide);
}

TEST(ShardedFleetRunner, HeterogeneousTmStaysDeterministic) {
  auto with_mixed_tm = [](size_t threads) {
    ShardedFleetConfig cfg = small_config(threads);
    cfg.plan.cycle_tm({Duration::minutes(5), Duration::minutes(10),
                       Duration::minutes(15)});
    return run_to_json(cfg);
  };
  EXPECT_EQ(with_mixed_tm(1), with_mixed_tm(8));
}

TEST(ShardedFleetRunner, ChurnAtBarriersStaysDeterministic) {
  auto with_churn = [](size_t threads) {
    ShardedFleetConfig cfg = small_config(threads);
    std::ostringstream out;
    JsonSink sink(out);
    sink.begin_run("churn");
    ShardedFleetRunner runner(cfg);
    runner.set_round_hook([](ShardedFleetRunner& r, size_t round, sim::Time) {
      // Deterministic churn: device (5 * round) % size leaves, device
      // from the previous round rejoins.
      const auto leaver =
          static_cast<swarm::DeviceId>((5 * round) % r.size());
      const auto rejoiner =
          static_cast<swarm::DeviceId>((5 * (round - 1)) % r.size());
      if (round > 1) r.set_present(rejoiner, true);
      if (leaver != 0) r.set_present(leaver, false);
    });
    const auto rounds = runner.run(sink);
    sink.end_run();
    EXPECT_LT(rounds.back().present, cfg.plan.devices());
    return out.str();
  };
  EXPECT_EQ(with_churn(1), with_churn(4));
}

TEST(ShardedFleetRunner, AbsentDevicesAreNotCollected) {
  ShardedFleetConfig cfg = small_config(2);
  cfg.plan.mobility.radio_range = 500.0;  // everyone in range of root
  cfg.rounds = 1;
  NullSink sink;
  ShardedFleetRunner runner(cfg);
  runner.set_present(5, false);
  runner.set_present(6, false);
  const auto rounds = runner.run(sink);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].present, cfg.plan.devices() - 2);
  EXPECT_EQ(rounds[0].reachable, cfg.plan.devices() - 2);
  EXPECT_EQ(rounds[0].healthy, cfg.plan.devices() - 2) << "clean fleet";
  // Absent provers took no part: their timers were never started.
  EXPECT_EQ(runner.prover(5).stats().collections, 0u);
  EXPECT_EQ(runner.prover(5).stats().measurements, 0u);
}

TEST(ShardedFleetRunner, StaggeredMeasurementsSpreadOverPeriod) {
  ShardedFleetConfig cfg = small_config(1);
  cfg.rounds = 1;
  cfg.round_interval = Duration::minutes(10);
  NullSink sink;
  ShardedFleetRunner runner(cfg);
  runner.run(sink);
  // Offsets are (id+1)*T_M/n: every device has measured exactly once
  // after one T_M.
  for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
    EXPECT_EQ(runner.prover(id).stats().measurements, 1u) << "device " << id;
  }
}

TEST(ShardedFleetRunner, PerDeviceKeysAreIndependent) {
  ShardedFleetConfig cfg = small_config(1);
  cfg.rounds = 1;
  cfg.round_interval = Duration::minutes(15);
  NullSink sink;
  ShardedFleetRunner runner(cfg);
  runner.run(sink);
  // Device 1's measurement must not verify under device 0's key.
  attest::Prover& p1 = runner.prover(1);
  attest::CollectResponse cross;
  cross.measurements = p1.store().latest(p1.latest_index(), 1);
  ASSERT_EQ(cross.measurements.size(), 1u);
  const auto report = attest::verify_collection(
      runner.directory().record(0), cross,
      Time::zero() + cfg.round_interval);
  EXPECT_TRUE(report.tampering_detected)
      << "cross-device measurement must fail MAC verification";
}

TEST(ShardedFleetRunner, ValidatesConfig) {
  ShardedFleetConfig cfg = small_config(1);
  cfg.threads = 0;
  EXPECT_THROW(ShardedFleetRunner{cfg}, std::invalid_argument);
  cfg = small_config(1);
  cfg.plan.set_devices(0);
  EXPECT_THROW(ShardedFleetRunner{cfg}, std::invalid_argument);
  cfg = small_config(1);
  cfg.root = 24;
  EXPECT_THROW(ShardedFleetRunner{cfg}, std::invalid_argument);
  // The collect request carries k in 32 bits: one past the range used to
  // run as k = 1 after the cast. Configs built without the scenario knob
  // parser (the fleet benchmark's) meet this check too.
  cfg = small_config(1);
  cfg.k = uint64_t{UINT32_MAX} + 2;
  try {
    ShardedFleetRunner runner(cfg);
    ADD_FAILURE() << "k = 2^32 + 1 accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4294967297"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
  }
}

TEST(ShardedFleetRunner, RunIsSingleShot) {
  ShardedFleetConfig cfg = small_config(1);
  cfg.rounds = 1;
  NullSink sink;
  ShardedFleetRunner runner(cfg);
  runner.run(sink);
  EXPECT_THROW(runner.run(sink), std::logic_error);
}

// --- the metrics table -------------------------------------------------------

// The last round's "metrics" rows: (subsystem, name, kind) and the value.
class MetricsCapture : public NullSink {
 public:
  struct Entry {
    std::string subsystem, name, kind;
    double value = 0.0;
  };
  void row(std::string_view table, const Row& r) override {
    if (table != "metrics") return;
    const std::string round = r[0].second.to_plain();
    if (round != round_) rows.clear();
    round_ = round;
    rows.push_back({r[1].second.to_plain(), r[2].second.to_plain(),
                    r[3].second.to_plain(), std::stod(r[4].second.to_plain())});
  }
  std::vector<Entry> rows;

 private:
  std::string round_;
};

using Schema = std::vector<std::tuple<std::string, std::string, std::string>>;

Schema schema_of(const std::vector<MetricsCapture::Entry>& rows) {
  Schema schema;
  for (const auto& e : rows) schema.emplace_back(e.subsystem, e.name, e.kind);
  return schema;
}

// Every session ends in exactly one counted outcome, per round and over
// the service's lifetime.
void expect_sessions_conserved(const attest::AttestationService& service,
                               size_t round) {
  const auto rs = service.round_stats();
  EXPECT_EQ(rs.sessions,
            rs.responses + rs.unreachable_sessions + rs.aborted_sessions)
      << "round " << round;
  const auto& s = service.stats();
  EXPECT_EQ(s.sessions,
            s.responses + s.unreachable_sessions + s.aborted_sessions)
      << "after round " << round;
}

// Checks conservation after every round: the round hook runs before the
// next round's collection, and the last round is checked after run().
void check_conservation_every_round(ShardedFleetRunner& runner) {
  runner.set_round_hook([](ShardedFleetRunner& r, size_t round, Time) {
    if (round > 1) expect_sessions_conserved(r.service(), round - 1);
  });
}

// The table's rows in their pinned order: every committed metrics table
// and the fleet benchmark's golden digests carry it. Each row is read from
// the ledger that keeps the count, so a counter row must equal that
// ledger.
const Schema kServiceSchema = {
    {"service", "sessions", "counter"},
    {"service", "responses", "counter"},
    {"service", "retries", "counter"},
    {"service", "unreachable_sessions", "counter"},
    {"service", "stray_datagrams", "counter"},
    {"window", "loss_backoffs", "counter"},
    {"window", "congestion_backoffs", "counter"},
    {"service", "response_latency_ms", "histogram"},
    {"window", "window", "gauge"},
    {"energy", "fleet_cpu_j", "gauge"},
    {"energy", "fleet_tx_j", "gauge"},
    {"energy", "fleet_rx_j", "gauge"},
    {"energy", "fleet_sleep_j", "gauge"},
    {"energy", "dark_devices", "gauge"},
    {"energy", "battery_remaining", "histogram"},
};

Schema with_service_rows(Schema head) {
  head.insert(head.end(), kServiceSchema.begin(), kServiceSchema.end());
  return head;
}

// Service, window and energy rows, shared by both backends.
std::map<std::string, double> service_ledgers(const ShardedFleetRunner& r,
                                              size_t rounds) {
  const auto& s = r.service().stats();
  const auto e = r.energy_meter()->totals();
  return {
      {"service/sessions", static_cast<double>(s.sessions)},
      {"service/responses", static_cast<double>(s.responses)},
      {"service/retries", static_cast<double>(s.retries)},
      {"service/unreachable_sessions",
       static_cast<double>(s.unreachable_sessions)},
      {"service/stray_datagrams", static_cast<double>(s.stray_datagrams)},
      {"window/loss_backoffs", static_cast<double>(s.loss_backoffs)},
      {"window/congestion_backoffs",
       static_cast<double>(s.congestion_backoffs)},
      // One latency observation per reachable completion.
      {"service/response_latency_ms", static_cast<double>(s.responses)},
      {"window/window", static_cast<double>(r.service().window())},
      {"energy/fleet_cpu_j", e.cpu_mj / 1e3},
      {"energy/fleet_tx_j", e.tx_mj / 1e3},
      {"energy/fleet_rx_j", e.rx_mj / 1e3},
      {"energy/fleet_sleep_j", e.sleep_mj / 1e3},
      {"energy/dark_devices",
       static_cast<double>(r.energy_meter()->dark_count())},
      // One observation per present device per round, no churn here.
      {"energy/battery_remaining", static_cast<double>(r.size() * rounds)},
  };
}

void expect_rows_match(const std::vector<MetricsCapture::Entry>& rows,
                       const std::map<std::string, double>& ledgers) {
  for (const auto& e : rows) {
    const std::string key = e.subsystem + "/" + e.name;
    const auto it = ledgers.find(key);
    if (it == ledgers.end()) continue;  // no outside ledger to compare
    EXPECT_EQ(e.value, it->second) << key;
  }
}

TEST(ShardedFleetRunner, MetricsTableReadsEachLedgerDirect) {
  ShardedFleetConfig cfg = small_config(2);
  cfg.energy.metered = true;
  cfg.energy.battery = sim::Energy{40'000.0};  // 40 mJ
  MetricsCapture sink;
  ShardedFleetRunner runner(cfg);
  check_conservation_every_round(runner);
  runner.run(sink);
  expect_sessions_conserved(runner.service(), cfg.rounds);

  EXPECT_EQ(schema_of(sink.rows), with_service_rows({
                                      {"channels", "frames_local", "counter"},
                                      {"channels", "frames_cross", "counter"},
                                      {"channels", "drains", "counter"},
                                  }));
  ASSERT_EQ(sink.rows.size(), 18u);
  auto ledgers = service_ledgers(runner, cfg.rounds);
  const auto& bc = runner.direct_transport().batch_counters();
  ledgers["channels/frames_local"] = static_cast<double>(bc.frames_local);
  ledgers["channels/frames_cross"] = static_cast<double>(bc.frames_cross);
  ledgers["channels/drains"] = static_cast<double>(bc.drains);
  expect_rows_match(sink.rows, ledgers);
  EXPECT_GT(runner.service().stats().responses, 0u);
  EXPECT_GT(bc.frames_local + bc.frames_cross, 0u);
}

TEST(ShardedFleetRunner, OverlayMetricsTableReadsEachLedgerDirect) {
  ShardedFleetConfig cfg = overlay_config(2);
  cfg.overlay.aggregation.enabled = true;
  cfg.energy.metered = true;
  cfg.energy.battery = sim::Energy{40'000.0};  // 40 mJ
  MetricsCapture sink;
  ShardedFleetRunner runner(cfg);
  check_conservation_every_round(runner);
  runner.run(sink);
  expect_sessions_conserved(runner.service(), cfg.rounds);

  EXPECT_EQ(schema_of(sink.rows),
            with_service_rows({
                {"overlay", "relay_drops", "counter"},
                {"overlay", "route_repairs", "counter"},
                {"overlay", "requests_served", "counter"},
                {"overlay", "reports_relayed", "counter"},
                {"overlay", "relay_queue_occupancy", "histogram"},
                {"overlay", "floods_sent", "counter"},
                {"overlay", "targeted_floods", "counter"},
                {"overlay", "scoped_sent", "counter"},
                {"overlay", "scoped_fallbacks", "counter"},
                {"overlay", "naks_received", "counter"},
                {"overlay", "reports_received", "counter"},
                {"overlay", "duplicate_reports", "counter"},
                {"overlay", "stale_reports", "counter"},
                {"overlay", "spoofed_rejected", "counter"},
                {"overlay", "hop_count", "histogram"},
            }));
  ASSERT_EQ(sink.rows.size(), 30u);
  const auto totals = runner.overlay_totals();
  const auto& t = runner.relay_transport()->stats();
  auto ledgers = service_ledgers(runner, cfg.rounds);
  ledgers["overlay/relay_drops"] = static_cast<double>(totals.reports_dropped);
  ledgers["overlay/route_repairs"] = static_cast<double>(totals.route_repairs);
  ledgers["overlay/requests_served"] =
      static_cast<double>(totals.requests_served);
  // Both report kinds: raw reports and cluster aggregates.
  ledgers["overlay/reports_relayed"] =
      static_cast<double>(totals.reports_relayed + totals.aggregates_relayed);
  ledgers["overlay/floods_sent"] = static_cast<double>(t.floods_sent);
  ledgers["overlay/targeted_floods"] = static_cast<double>(t.targeted_floods);
  ledgers["overlay/scoped_sent"] = static_cast<double>(t.scoped_sent);
  ledgers["overlay/scoped_fallbacks"] =
      static_cast<double>(t.scoped_fallbacks);
  ledgers["overlay/naks_received"] = static_cast<double>(t.naks_received);
  ledgers["overlay/reports_received"] =
      static_cast<double>(t.reports_received);
  ledgers["overlay/duplicate_reports"] =
      static_cast<double>(t.duplicate_reports);
  ledgers["overlay/stale_reports"] = static_cast<double>(t.stale_reports);
  ledgers["overlay/spoofed_rejected"] =
      static_cast<double>(t.spoofed_rejected);
  // Accepted raw reports and aggregates alike land in the hop histogram.
  ledgers["overlay/hop_count"] =
      static_cast<double>(t.reports_received + t.aggregates_received);
  expect_rows_match(sink.rows, ledgers);
  EXPECT_GT(totals.aggregates_relayed, 0u) << "clusters must relay upward";
  EXPECT_GT(totals.reports_relayed, 0u);
}

// A deadline shorter than the response timeout cuts every round: the
// sessions still in flight are aborted, and each is counted once.
TEST(ShardedFleetRunner, DeadlineCutRoundsConserveSessions) {
  ShardedFleetConfig cfg = overlay_config(2);
  cfg.overlay.net_loss = 0.2;
  cfg.overlay.collect_deadline = Duration::seconds(1);
  cfg.overlay.response_timeout = Duration::seconds(5);
  NullSink sink;
  ShardedFleetRunner runner(cfg);
  check_conservation_every_round(runner);
  runner.run(sink);
  expect_sessions_conserved(runner.service(), cfg.rounds);
  EXPECT_GT(runner.service().stats().aborted_sessions, 0u);
}

// The registered swarm_patrol scenario (the acceptance-criteria surface):
// same params, different `threads`, identical JSON bytes.
TEST(ShardedFleetRunner, SwarmPatrolScenarioThreadCountInvariant) {
  const Scenario* s = ScenarioRegistry::instance().find("swarm_patrol");
  ASSERT_NE(s, nullptr);
  auto run_with_threads = [&](const char* threads) {
    std::ostringstream out;
    JsonSink sink(out);
    sink.begin_run(s->name());
    const int code = s->run(
        ParamMap::from_args(
            {"devices=40", "seed=42", std::string("threads=") + threads}),
        sink);
    EXPECT_EQ(code, 0);
    sink.end_run();
    return out.str();
  };
  const std::string t1 = run_with_threads("1");
  EXPECT_EQ(t1, run_with_threads("2"));
  EXPECT_EQ(t1, run_with_threads("8"));
}

}  // namespace
}  // namespace erasmus::scenario
