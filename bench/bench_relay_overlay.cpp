// Perf baseline for the multi-hop collection overlay: a 1000-device
// mobile swarm collected through overlay::RelayTransport behind the
// AttestationService.
//
// The ShardedFleetRunner drives 3 collection rounds with the kOverlay
// backend at 1/8 threads: every round is a real packet-level flood +
// store-and-forward harvest over the instantaneous topology. Reported per
// thread count: fleet build time, wall time per collection round, and
// device-collections per second; plus the hop-count distribution of all
// accepted reports (how deep collection actually reached) and the relay
// economy (floods forwarded, reports relayed/dropped, route repairs).
// Metrics must stay byte-identical across thread counts -- the bench
// aborts otherwise. Every cell also reports link_checks_per_tx: link-filter
// evaluations per radio transmission, the machine-independent cost the
// grid-indexed broadcast keeps at O(neighbours) instead of O(devices).
// Emits BENCH_relay_overlay.json so later overlay work (smarter flood
// scoping, per-subtree retries, queue-aware routing) has a baseline to
// beat.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/table.h"
#include "scenario/metrics.h"
#include "scenario/sharded_runner.h"

using namespace erasmus;
using sim::Duration;

namespace {

constexpr size_t kDevices = 1000;
constexpr size_t kRounds = 3;

scenario::ShardedFleetConfig make_config(size_t threads) {
  swarm::DeviceSpec base;
  base.arch = hw::ArchKind::kSmartPlus;
  base.profile = swarm::default_profile_for(base.arch);
  base.app_ram_bytes = 1024;
  base.store_slots = 32;

  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(kDevices, /*key_seed=*/42, base);
  // ~70 neighbours average, diameter ~10 hops: the first flood covers the
  // swarm and retries stay what they are meant to be (loss recovery), not
  // a TTL crutch -- each targeted retry re-floods the whole field.
  cfg.plan.mobility.field_size = 450.0;
  cfg.plan.mobility.radio_range = 60.0;
  cfg.plan.mobility.speed_min = 6.0;
  cfg.plan.mobility.speed_max = 12.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = threads;
  cfg.rounds = kRounds;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 8;
  cfg.backend = scenario::CollectionBackend::kOverlay;
  cfg.overlay.ttl = 14;
  // Root-adjacent relays each carry a whole-subtree's reports (~fleet /
  // degree, with hotspots well above the mean). An undersized buffer
  // turns into mass drops -> per-device retry floods -> an N^2-send storm
  // per retry (measured: depth 64 at 700 devices = 200 drops and 200x the
  // flood traffic of depth 256 with zero drops). Provision for the fleet.
  cfg.overlay.queue_depth = 256;
  cfg.overlay.collect_deadline = Duration::seconds(30);
  return cfg;
}

// --- Hierarchical collection cell: 10k devices -------------------------------
//
// The aggregation payoff only shows at scale: a 2 km field keeps the
// parent trees ~40 hops deep, so per-device relaying pays
// O(devices x hops) radio bytes while cluster heads collapse whole
// depth bands into single authenticated frames. Both cells run ONE
// round over the identical topology/seed; the gate is physical radio
// tx bytes per device (counted once per transmission, like the energy
// tap) at equal-or-better coverage.

constexpr size_t kCellDevices = 10000;

scenario::ShardedFleetConfig cell_config(bool aggregated) {
  swarm::DeviceSpec base;
  base.arch = hw::ArchKind::kSmartPlus;
  base.profile = swarm::default_profile_for(base.arch);
  base.app_ram_bytes = 1024;
  base.store_slots = 32;

  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(kCellDevices, /*key_seed=*/42, base);
  // ~28 neighbours average and a ~40-hop diameter: deep trees, the
  // regime hierarchical collection exists for. Near-walking speeds keep
  // the topology stable across the (single) 2-minute listening window.
  cfg.plan.mobility.field_size = 2000.0;
  cfg.plan.mobility.radio_range = 60.0;
  cfg.plan.mobility.speed_min = 1.0;
  cfg.plan.mobility.speed_max = 3.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = 8;
  cfg.rounds = 1;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 8;
  cfg.backend = scenario::CollectionBackend::kOverlay;
  cfg.overlay.ttl = 80;
  cfg.overlay.queue_depth = 1024;
  cfg.overlay.collect_deadline = Duration::seconds(120);
  cfg.overlay.response_timeout = Duration::seconds(5);
  cfg.overlay.max_retries = 2;
  cfg.window = scenario::WindowSpec::parse("fleet");
  if (aggregated) {
    cfg.overlay.aggregation.enabled = true;
    cfg.overlay.aggregation.election = {aggregate::ElectionMode::kDepthBand,
                                        2};
    cfg.overlay.aggregation.window = Duration::millis(200);
  }
  return cfg;
}

/// Link-filter evaluations per radio transmission on the overlay network.
double link_checks_per_tx(const scenario::ShardedFleetRunner& runner) {
  const net::Network::Stats& net = runner.overlay_network()->stats();
  return net.transmissions == 0
             ? 0.0
             : static_cast<double>(net.link_checks) /
                   static_cast<double>(net.transmissions);
}

struct CellRun {
  size_t collected = 0;
  size_t healthy = 0;
  double tx_bytes_per_device = 0.0;
  uint64_t clusters = 0;
  uint64_t aggregated_sessions = 0;
  uint64_t demand_fetches = 0;
  double link_checks_per_tx = 0.0;
  double wall_ms = 0.0;
};

CellRun run_cell(bool aggregated) {
  const auto t0 = std::chrono::steady_clock::now();
  scenario::ShardedFleetRunner runner(cell_config(aggregated));
  std::ostringstream out;
  scenario::JsonSink sink(out);
  sink.begin_run("bench_relay_overlay_10k");
  const auto rounds = runner.run(sink);
  sink.end_run();

  CellRun r;
  for (const auto& round : rounds) {
    r.collected += round.reachable;
    r.healthy += round.healthy;
  }
  r.tx_bytes_per_device =
      static_cast<double>(runner.overlay_network()->stats().phys_tx_bytes) /
      static_cast<double>(kCellDevices);
  r.clusters = runner.overlay_totals().aggregates_received;
  r.aggregated_sessions = runner.service().stats().aggregated_sessions;
  r.demand_fetches = runner.service().stats().demand_fetches;
  r.link_checks_per_tx = link_checks_per_tx(runner);
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

struct BenchRun {
  double build_ms = 0.0;
  double round_ms = 0.0;           // wall per collection round
  double collections_per_s = 0.0;  // device-collections per wall second
  size_t collected = 0;
  double link_checks_per_tx = 0.0;
  scenario::ShardedFleetRunner::OverlayTotals totals;
  std::string metrics_json;
};

BenchRun run_at(size_t threads) {
  const auto t0 = std::chrono::steady_clock::now();
  scenario::ShardedFleetConfig cfg = make_config(threads);
  scenario::ShardedFleetRunner runner(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  std::ostringstream out;
  scenario::JsonSink sink(out);
  sink.begin_run("bench_relay_overlay");
  const auto rounds = runner.run(sink);
  sink.end_run();
  const auto t2 = std::chrono::steady_clock::now();

  BenchRun result;
  for (const auto& r : rounds) result.collected += r.reachable;
  result.build_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double run_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  result.round_ms = run_ms / static_cast<double>(kRounds);
  result.collections_per_s =
      run_ms == 0.0
          ? 0.0
          : static_cast<double>(result.collected) / (run_ms / 1000.0);
  result.totals = runner.overlay_totals();
  result.link_checks_per_tx = link_checks_per_tx(runner);
  result.metrics_json = out.str();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Quick mode runs the single-thread leg only: every simulation-derived
  // quantity is thread-count independent (the full run asserts exactly
  // that), so the baseline-gated numbers are unchanged.
  const bool quick = analysis::bench_quick_mode(argc, argv);

  std::printf("=== Relay overlay: %zu-device mobile swarm "
              "(450 m field, 60 m radios, 6-12 m/s), %zu multi-hop "
              "collection rounds ===\n\n",
              kDevices, kRounds);

  analysis::BenchReport bench("relay_overlay");
  analysis::Table table({"threads", "build ms", "round ms",
                         "device-collections/s", "collected"});

  std::string reference_metrics;
  bool deterministic = true;
  BenchRun last;
  const std::vector<size_t> thread_counts =
      quick ? std::vector<size_t>{1} : std::vector<size_t>{1, 8};
  for (const size_t threads : thread_counts) {
    const BenchRun r = run_at(threads);
    if (reference_metrics.empty()) {
      reference_metrics = r.metrics_json;
    } else if (r.metrics_json != reference_metrics) {
      deterministic = false;
    }
    table.add_row({std::to_string(threads), analysis::fmt(r.build_ms, 1),
                   analysis::fmt(r.round_ms, 1),
                   analysis::fmt(r.collections_per_s, 0),
                   std::to_string(r.collected)});
    std::string prefix = "t";
    prefix += std::to_string(threads);
    prefix += '_';
    bench.sample(prefix + "build_ms", r.build_ms);
    bench.sample(prefix + "round_wall_ms", r.round_ms);
    bench.sample(prefix + "collections_per_s", r.collections_per_s);
    last = r;
  }
  std::printf("%s\n", table.render().c_str());

  // Hop-count distribution: the §6 payoff made visible -- most of the
  // swarm is only reachable through relays.
  uint64_t reports = 0;
  for (const uint64_t n : last.totals.hops) reports += n;
  std::printf("hop-count distribution (%llu accepted reports):\n",
              static_cast<unsigned long long>(reports));
  for (size_t h = 0; h < last.totals.hops.size(); ++h) {
    if (last.totals.hops[h] == 0) continue;
    std::printf("  %2zu relays: %6llu (%.1f%%)\n", h,
                static_cast<unsigned long long>(last.totals.hops[h]),
                100.0 * static_cast<double>(last.totals.hops[h]) /
                    static_cast<double>(reports));
    bench.sample("hops_" + std::to_string(h),
                 static_cast<double>(last.totals.hops[h]));
  }
  uint64_t weighted = 0;
  for (size_t h = 0; h < last.totals.hops.size(); ++h) {
    weighted += last.totals.hops[h] * h;
  }
  const double mean_hops =
      reports == 0 ? 0.0
                   : static_cast<double>(weighted) /
                         static_cast<double>(reports);
  std::printf("\nmean relay hops: %.2f, link checks per transmission: "
              "%.1f\n",
              mean_hops, last.link_checks_per_tx);
  std::printf("floods forwarded: %llu, reports relayed: %llu, dropped: "
              "%llu, route repairs: %llu\n\n",
              static_cast<unsigned long long>(last.totals.floods_forwarded),
              static_cast<unsigned long long>(last.totals.reports_relayed),
              static_cast<unsigned long long>(last.totals.reports_dropped),
              static_cast<unsigned long long>(last.totals.route_repairs));
  bench.sample("mean_relay_hops", mean_hops);
  bench.sample("reports_relayed", static_cast<double>(last.totals.reports_relayed));
  bench.sample("route_repairs", static_cast<double>(last.totals.route_repairs));
  bench.sample("link_checks_per_tx", last.link_checks_per_tx);

  std::printf("metrics byte-identical across thread counts: %s\n\n",
              deterministic ? "yes" : "NO (BUG)");
  if (!deterministic) return 1;

  // --- The 10k hierarchical-collection cell (runs in --quick too: its
  // quantities are simulation-derived, and the gate fails missing
  // quantities BY NAME). -------------------------------------------------
  std::printf("=== Hierarchical collection: %zu devices, 2 km field, one "
              "round, per-device vs cluster-head aggregated ===\n\n",
              kCellDevices);
  const CellRun noagg = run_cell(/*aggregated=*/false);
  const CellRun agg = run_cell(/*aggregated=*/true);
  const double compression =
      agg.tx_bytes_per_device == 0.0
          ? 0.0
          : noagg.tx_bytes_per_device / agg.tx_bytes_per_device;

  analysis::Table cell_table({"mode", "radio tx B/device", "collected",
                              "healthy", "clusters", "demand fetches",
                              "link checks/tx", "wall ms"});
  cell_table.add_row({"per-device", analysis::fmt(noagg.tx_bytes_per_device, 0),
                      std::to_string(noagg.collected),
                      std::to_string(noagg.healthy), "-", "-",
                      analysis::fmt(noagg.link_checks_per_tx, 1),
                      analysis::fmt(noagg.wall_ms, 0)});
  cell_table.add_row({"aggregated", analysis::fmt(agg.tx_bytes_per_device, 0),
                      std::to_string(agg.collected),
                      std::to_string(agg.healthy),
                      std::to_string(agg.clusters),
                      std::to_string(agg.demand_fetches),
                      analysis::fmt(agg.link_checks_per_tx, 1),
                      analysis::fmt(agg.wall_ms, 0)});
  std::printf("%s\n", cell_table.render().c_str());
  std::printf("radio bytes/device compression: %.2fx\n\n", compression);

  bench.sample("noagg10k_radio_tx_bytes_per_device",
               noagg.tx_bytes_per_device);
  bench.sample("agg10k_radio_tx_bytes_per_device", agg.tx_bytes_per_device);
  bench.sample("agg10k_compression", compression);
  bench.sample("noagg10k_collected", static_cast<double>(noagg.collected));
  bench.sample("agg10k_collected", static_cast<double>(agg.collected));
  bench.sample("agg10k_healthy", static_cast<double>(agg.healthy));
  bench.sample("agg10k_clusters", static_cast<double>(agg.clusters));
  bench.sample("agg10k_aggregated_sessions",
               static_cast<double>(agg.aggregated_sessions));
  bench.sample("agg10k_demand_fetches",
               static_cast<double>(agg.demand_fetches));
  bench.sample("noagg10k_link_checks_per_tx", noagg.link_checks_per_tx);
  bench.sample("agg10k_link_checks_per_tx", agg.link_checks_per_tx);
  bench.sample("noagg10k_wall_ms", noagg.wall_ms);
  bench.sample("agg10k_wall_ms", agg.wall_ms);

  // The tentpole claim, self-gated: aggregation must cut radio bytes per
  // device >= 5x at equal-or-better coverage.
  if (compression < 5.0) {
    std::printf("FAIL: compression %.2fx < 5x\n", compression);
    return 1;
  }
  if (agg.collected < noagg.collected || agg.healthy < noagg.healthy) {
    std::printf("FAIL: aggregated coverage regressed (%zu/%zu collected, "
                "%zu/%zu healthy)\n",
                agg.collected, noagg.collected, agg.healthy, noagg.healthy);
    return 1;
  }

  const std::string path = bench.write();
  // A missing BENCH json would silently weaken the CI baseline gate.
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
