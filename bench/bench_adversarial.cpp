// Adversarial detection: the paper's T_M-vs-dwell claim under attack.
//
// A 48-device swarm runs a measurement-aware roaming-malware campaign
// (dwell 12m, 6 chains) while T_M sweeps from 30m down to 4m. The paper's
// claim (§3.5, §7): once T_M drops below the malware's useful-work dwell,
// an aware adversary runs out of evasion slack and detection probability
// climbs toward 1. The bench FAILS (exit 1) unless the measured curve is
// monotonically non-decreasing as T_M shrinks, stays low while T_M is
// comfortably above the dwell, and saturates once T_M is well below it.
//
// Two extra panels commit the rest of the adversarial suite to the
// baseline: the same infected campaign collected direct vs overlay vs
// overlay+aggregate (detection must survive the collection backend), and
// the relay-layer attackers (drop/corrupt/sybil) with their split
// counters -- adversarial drops must never masquerade as congestion.
//
// Everything is deterministic for the fixed seed at any thread count, so
// CI gates the quantities against the committed baseline via
// tools/check_bench.py.
#include <cstdio>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "analysis/bench_report.h"
#include "analysis/table.h"
#include "scenario/metrics.h"
#include "scenario/sharded_runner.h"

using namespace erasmus;
using sim::Duration;

namespace {

constexpr size_t kDevices = 48;
constexpr size_t kRounds = 4;
constexpr size_t kChains = 6;
const Duration kDwell = Duration::minutes(12);
const Duration kInterval = Duration::minutes(30);

scenario::ShardedFleetConfig base_config(Duration tm) {
  swarm::DeviceSpec base;
  base.arch = hw::ArchKind::kSmartPlus;
  base.profile = swarm::default_profile_for(base.arch);
  base.tm = tm;
  base.app_ram_bytes = 2 * 1024;
  base.store_slots = 64;

  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(kDevices, /*key_seed=*/42, base);
  cfg.plan.mobility.field_size = 300.0;
  cfg.plan.mobility.radio_range = 60.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = 8;
  cfg.rounds = kRounds;
  cfg.round_interval = kInterval;
  cfg.k = 8;

  cfg.adversary.mode = adversary::Mode::kRoaming;
  cfg.adversary.migration = adversary::Migration::kAware;
  cfg.adversary.dwell = kDwell;
  cfg.adversary.chains = kChains;
  cfg.adversary.seed = 42;
  return cfg;
}

void use_overlay(scenario::ShardedFleetConfig& cfg, bool aggregate) {
  cfg.backend = scenario::CollectionBackend::kOverlay;
  cfg.overlay.ttl = 8;
  cfg.overlay.queue_depth = 16;
  cfg.overlay.forward_spacing = Duration::millis(1);
  cfg.overlay.net_latency = Duration::millis(2);
  cfg.overlay.collect_deadline = Duration::seconds(30);
  cfg.overlay.response_timeout = Duration::seconds(10);
  cfg.overlay.max_retries = 1;
  if (aggregate) {
    cfg.overlay.aggregation.enabled = true;
    cfg.overlay.aggregation.election.mode = aggregate::ElectionMode::kDepthBand;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Deterministic quantities; quick mode just labels the CI invocation.
  (void)analysis::bench_quick_mode(argc, argv);

  std::printf("=== Adversarial detection: aware roaming malware "
              "(dwell %.0fm, %zu chains) vs T_M, %zu devices ===\n\n",
              kDwell.to_seconds() / 60.0, kChains, kDevices);

  analysis::BenchReport bench("adversarial");
  bool gate_ok = true;

  // --- Panel 1: detection probability vs T_M (the paper's curve) ---
  const Duration tms[] = {Duration::minutes(30), Duration::minutes(20),
                          Duration::minutes(15), Duration::minutes(10),
                          Duration::minutes(6), Duration::minutes(4)};
  analysis::Table curve({"T_M", "detected", "p_detect", "latency min",
                         "migrations", "evasions", "captures"});
  std::vector<double> probs;
  double latency_below_dwell = 0.0;
  size_t latency_points = 0;
  for (const Duration tm : tms) {
    scenario::ShardedFleetRunner runner(base_config(tm));
    scenario::NullSink sink;
    runner.run(sink);
    const adversary::Engine& e = *runner.adversary_engine();
    const adversary::Engine::Snapshot snap = e.snapshot();
    const double p = e.detection_probability();
    probs.push_back(p);
    const double latency_min =
        e.mean_detection_latency().to_seconds() / 60.0;
    if (e.detected_chains() > 0 && tm < kDwell) {
      latency_below_dwell += latency_min;
      ++latency_points;
    }
    curve.add_row({analysis::fmt(tm.to_seconds() / 60.0, 0) + "m",
                   std::to_string(e.detected_chains()), analysis::fmt(p, 2),
                   analysis::fmt(latency_min, 1),
                   std::to_string(snap.migrations),
                   std::to_string(snap.evasions),
                   std::to_string(snap.captures)});
    const std::string tag =
        "tm" + std::to_string(static_cast<int>(tm.to_seconds() / 60));
    bench.sample("detect_prob_" + tag, p);
    bench.sample("migrations_" + tag, static_cast<double>(snap.migrations));
  }
  std::printf("%s\n", curve.render().c_str());

  // Gate: the curve must be non-decreasing as T_M shrinks, low while the
  // adversary has slack (T_M well above dwell) and saturated once it has
  // none (T_M well below dwell).
  for (size_t i = 1; i < probs.size(); ++i) {
    if (probs[i] + 1e-9 < probs[i - 1]) {
      std::printf("GATE: p_detect fell from %.2f to %.2f as T_M shrank\n",
                  probs[i - 1], probs[i]);
      gate_ok = false;
    }
  }
  if (probs.front() > 0.5) {
    std::printf("GATE: p_detect %.2f at T_M=30m -- aware adversary should "
                "evade a sparse schedule\n",
                probs.front());
    gate_ok = false;
  }
  if (probs.back() < 0.9) {
    std::printf("GATE: p_detect %.2f at T_M=4m -- the curve must saturate "
                "below the dwell\n",
                probs.back());
    gate_ok = false;
  }
  // Gated latency quantity (minutes; "_min" is a unit here, and the name
  // avoids the reported-only *_ms pattern on purpose).
  bench.sample("detection_latency_min",
               latency_points > 0 ? latency_below_dwell / latency_points
                                  : 0.0);

  // --- Panel 2: same campaign, three collection backends (T_M = 6m) ---
  analysis::Table backends({"backend", "reachable", "p_detect",
                            "latency min"});
  const char* names[] = {"direct", "overlay", "overlay_agg"};
  for (int b = 0; b < 3; ++b) {
    scenario::ShardedFleetConfig cfg = base_config(Duration::minutes(6));
    if (b > 0) use_overlay(cfg, b == 2);
    scenario::ShardedFleetRunner runner(cfg);
    scenario::NullSink sink;
    const auto rounds = runner.run(sink);
    size_t reachable = 0;
    for (const auto& r : rounds) reachable += r.reachable;
    const adversary::Engine& e = *runner.adversary_engine();
    backends.add_row({names[b], std::to_string(reachable),
                      analysis::fmt(e.detection_probability(), 2),
                      analysis::fmt(
                          e.mean_detection_latency().to_seconds() / 60.0,
                          1)});
    bench.sample(std::string("detect_prob_") + names[b],
                 e.detection_probability());
    bench.sample(std::string("reachable_") + names[b],
                 static_cast<double>(reachable));
  }
  std::printf("%s\n", backends.render().c_str());

  // --- Panel 3: relay-layer attackers and their split counters ---
  analysis::Table relay({"attack", "dropped_adv", "corrupted_adv",
                         "sybil_injected", "spoofed_rejected",
                         "congestion_drops"});
  struct RelayCase {
    const char* name;
    adversary::Mode mode;
    bool corrupt;
  };
  const RelayCase relay_cases[] = {
      {"relay_drop", adversary::Mode::kRelay, false},
      {"relay_corrupt", adversary::Mode::kRelay, true},
      {"sybil", adversary::Mode::kSybil, false},
  };
  for (const RelayCase& rc : relay_cases) {
    scenario::ShardedFleetConfig cfg = base_config(Duration::minutes(6));
    use_overlay(cfg, false);
    cfg.adversary.mode = rc.mode;
    cfg.adversary.corrupt_frames = rc.corrupt;
    cfg.adversary.compromised_fraction = 0.15;
    scenario::ShardedFleetRunner runner(cfg);
    scenario::NullSink sink;
    runner.run(sink);
    const auto totals = runner.overlay_totals();
    relay.add_row({rc.name, std::to_string(totals.dropped_adversarial),
                   std::to_string(totals.corrupted_adversarial),
                   std::to_string(totals.sybil_injected),
                   std::to_string(totals.spoofed_rejected),
                   std::to_string(totals.reports_dropped)});
    const std::string prefix = std::string(rc.name) + "_";
    bench.sample(prefix + "dropped_adv",
                 static_cast<double>(totals.dropped_adversarial));
    bench.sample(prefix + "corrupted_adv",
                 static_cast<double>(totals.corrupted_adversarial));
    bench.sample(prefix + "sybil_injected",
                 static_cast<double>(totals.sybil_injected));
    bench.sample(prefix + "spoofed_rejected",
                 static_cast<double>(totals.spoofed_rejected));
  }
  std::printf("%s\n", relay.render().c_str());

  std::printf("T_M-vs-dwell gate: %s\n\n",
              gate_ok ? "ok" : "FAILED");
  if (!gate_ok) return 1;

  const std::string path = bench.write();
  // A missing BENCH json would silently weaken the CI baseline gate.
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
