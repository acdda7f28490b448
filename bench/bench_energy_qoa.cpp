// QoA-per-joule: the energy planner vs fixed (T_M, backend) grids.
//
// A 60-device metered swarm hunts an 8-minute-dwell implant for 4 rounds
// across five deployment cells:
//
//  * infra            -- direct backhaul, mains power (kDirect regime);
//  * lossy_{slow,fast}_mains  -- 12% per-hop loss field swarm at walking /
//                                vehicle speeds, mains power;
//  * lossy_{slow,fast}_budget -- same radio, but an 80 mJ per-device
//                                battery for the whole mission: a T_M that
//                                measures too eagerly browns out mid-run
//                                and its devices go DARK.
//
// In each cell a fixed grid bracketing the dwell (T_M = 4m / 20m, flood
// and scoped-retry collection where applicable) is raced against
// energy::plan(), which sees only the deployment model -- never the
// simulation. QoA is dwell-detection-weighted healthy collections
// (min(1, dwell/T_M) per healthy report); joules are the FleetMeter's
// measured fleet total. The bench FAILS (exit 1) unless the planner's
// QoA/J beats EVERY fixed configuration in EVERY lossy cell -- the
// closed-form optimum (T_M = dwell, scoped under loss) must actually
// cash out against the packet-level simulation.
//
// All quantities are deterministic for the fixed seed (the meter is
// integer-nanojoule, the runner byte-identical at any thread count), so
// CI gates them against the committed baseline via tools/check_bench.py.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/table.h"
#include "energy/planner.h"
#include "scenario/metrics.h"
#include "scenario/sharded_runner.h"

using namespace erasmus;
using sim::Duration;

namespace {

constexpr size_t kDevices = 60;
constexpr size_t kRounds = 4;
constexpr double kFieldSize = 300.0;
constexpr double kRadioRange = 60.0;
const Duration kDwell = Duration::minutes(8);
const Duration kInterval = Duration::minutes(30);

enum class Collect { kDirect, kFlood, kScoped };

struct Cell {
  const char* name;
  double loss;
  bool infrastructure;
  double speed_min, speed_max;
  sim::Energy battery;  // 0 = mains (metered-unlimited)
};

struct CaseResult {
  double qoa = 0.0;
  double spent_mj = 0.0;
  double qpj = 0.0;
  size_t dark = 0;
  size_t collected = 0;
};

scenario::ShardedFleetConfig make_config(const Cell& cell, Duration tm,
                                         Collect collect, bool adaptive) {
  swarm::DeviceSpec base;
  base.arch = hw::ArchKind::kSmartPlus;
  base.profile = swarm::default_profile_for(base.arch);
  base.tm = tm;
  base.app_ram_bytes = 2 * 1024;
  base.store_slots = 64;

  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(kDevices, /*key_seed=*/42, base);
  cfg.plan.mobility.field_size = kFieldSize;
  cfg.plan.mobility.radio_range = kRadioRange;
  cfg.plan.mobility.speed_min = cell.speed_min;
  cfg.plan.mobility.speed_max = cell.speed_max;
  cfg.plan.mobility.seed = 42;
  cfg.threads = 8;
  cfg.rounds = kRounds;
  cfg.round_interval = kInterval;
  cfg.k = 8;
  cfg.energy.metered = true;
  cfg.energy.battery = cell.battery;
  if (collect == Collect::kDirect) {
    cfg.backend = scenario::CollectionBackend::kDirect;
  } else {
    cfg.backend = scenario::CollectionBackend::kOverlay;
    cfg.overlay.ttl = 10;
    cfg.overlay.net_loss = cell.loss;
    cfg.overlay.response_timeout = Duration::seconds(2);
    cfg.overlay.max_retries = 2;
    cfg.overlay.collect_deadline = Duration::seconds(30);
    cfg.overlay.scoped_retries = collect == Collect::kScoped;
  }
  cfg.window = scenario::WindowSpec::parse(adaptive ? "adaptive" : "fleet");
  return cfg;
}

CaseResult run_case(const Cell& cell, Duration tm, Collect collect,
                    bool adaptive) {
  scenario::ShardedFleetRunner runner(
      make_config(cell, tm, collect, adaptive));
  scenario::NullSink sink;
  const auto rounds = runner.run(sink);

  const double p_detect =
      std::min(1.0, kDwell.to_seconds() / tm.to_seconds());
  CaseResult r;
  for (const auto& round : rounds) {
    r.qoa += static_cast<double>(round.healthy) * p_detect;
    r.collected += round.reachable;
  }
  const energy::FleetMeter& meter = *runner.energy_meter();
  r.spent_mj = meter.totals().spent_mj();
  r.dark = meter.dark_count();
  r.qpj = r.spent_mj > 0.0 ? r.qoa / (r.spent_mj / 1e3) : 0.0;
  return r;
}

/// The deployment model the planner sees: geometry-derived degree/depth,
/// never anything read back out of the simulation.
energy::Decision plan_for(const Cell& cell) {
  energy::FleetModel fleet;
  fleet.devices = kDevices;
  fleet.attested_bytes = 2 * 1024;
  fleet.k = 8;
  fleet.mean_degree = std::max(
      1.0, kDevices * 3.14159265358979 * kRadioRange * kRadioRange /
               (kFieldSize * kFieldSize) -
           1.0);
  fleet.mean_hops = std::max(1.0, kFieldSize / (1.4142135624 * kRadioRange));

  energy::Mission mission;
  mission.dwell = kDwell;
  mission.round_interval = kInterval;
  mission.rounds = kRounds;
  mission.loss = cell.loss;
  mission.infrastructure = cell.infrastructure;
  mission.device_budget = cell.battery;
  return energy::plan(fleet, mission);
}

Collect to_collect(energy::BackendChoice b) {
  switch (b) {
    case energy::BackendChoice::kDirect: return Collect::kDirect;
    case energy::BackendChoice::kOverlay: return Collect::kFlood;
    case energy::BackendChoice::kScoped: return Collect::kScoped;
  }
  return Collect::kFlood;
}

const char* collect_name(Collect c) {
  switch (c) {
    case Collect::kDirect: return "direct";
    case Collect::kFlood: return "flood";
    case Collect::kScoped: return "scoped";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  // Every gated quantity is deterministic; quick mode just labels the CI
  // invocation (same cells, same seeds, identical samples).
  (void)analysis::bench_quick_mode(argc, argv);

  std::printf("=== QoA per joule: planner vs fixed (T_M, backend) grid, "
              "%zu devices, %zu rounds ===\n\n",
              kDevices, kRounds);

  const Cell cells[] = {
      {"infra", 0.0, true, 8.0, 16.0, sim::Energy{}},
      {"lossy_slow_mains", 0.12, false, 2.0, 6.0, sim::Energy{}},
      {"lossy_fast_mains", 0.12, false, 8.0, 16.0, sim::Energy{}},
      {"lossy_slow_budget", 0.12, false, 2.0, 6.0, sim::Energy{80e3}},
      {"lossy_fast_budget", 0.12, false, 8.0, 16.0, sim::Energy{80e3}},
  };
  const Duration grid_tms[] = {Duration::minutes(4), Duration::minutes(20)};

  analysis::BenchReport bench("energy_qoa");
  bool gate_ok = true;
  size_t planner_wins = 0;
  size_t lossy_cells = 0;
  double min_margin = 1e300;

  for (const Cell& cell : cells) {
    const bool lossy = !cell.infrastructure;
    // Fixed grid: both collection styles of the cell's regime x both T_Ms.
    std::vector<Collect> collects;
    if (cell.infrastructure) {
      collects = {Collect::kDirect};
    } else {
      collects = {Collect::kFlood, Collect::kScoped};
    }

    analysis::Table table({"config", "tm", "QoA", "spent mJ", "QoA/J",
                           "dark", "collected"});
    double best_fixed_qpj = 0.0;
    const auto record = [&](const std::string& config, Duration tm,
                            const CaseResult& r) {
      table.add_row({config, analysis::fmt(tm.to_seconds() / 60.0, 0) + "m",
                     analysis::fmt(r.qoa, 1), analysis::fmt(r.spent_mj, 1),
                     analysis::fmt(r.qpj, 2), std::to_string(r.dark),
                     std::to_string(r.collected)});
      const std::string prefix = std::string(cell.name) + "_" + config + "_";
      bench.sample(prefix + "qpj", r.qpj);
      bench.sample(prefix + "qoa", r.qoa);
      bench.sample(prefix + "spent_mj", r.spent_mj);
      bench.sample(prefix + "dark", static_cast<double>(r.dark));
    };

    for (const Collect collect : collects) {
      for (const Duration tm : grid_tms) {
        const CaseResult r = run_case(cell, tm, collect, /*adaptive=*/false);
        record(std::string("tm") +
                   std::to_string(static_cast<int>(tm.to_seconds() / 60)) +
                   "_" + collect_name(collect),
               tm, r);
        best_fixed_qpj = std::max(best_fixed_qpj, r.qpj);
      }
    }

    const energy::Decision d = plan_for(cell);
    const CaseResult pr =
        run_case(cell, d.tm, to_collect(d.backend), d.adaptive_window);
    record("planner", d.tm, pr);

    std::printf("--- %s (loss %.0f%%, %s, %s) ---\n", cell.name,
                cell.loss * 100.0,
                cell.infrastructure ? "infrastructure" : "field",
                cell.battery.microjoules > 0.0 ? "80 mJ battery" : "mains");
    std::printf("planner chose: tm=%.0fm backend=%s window=%s (%s)\n",
                d.tm.to_seconds() / 60.0, energy::to_string(d.backend),
                d.adaptive_window ? "adaptive" : "fleet",
                d.reasons.c_str());
    std::printf("%s\n", table.render().c_str());

    if (lossy) {
      ++lossy_cells;
      const double margin =
          best_fixed_qpj > 0.0 ? pr.qpj / best_fixed_qpj : 1e300;
      min_margin = std::min(min_margin, margin);
      if (pr.qpj > best_fixed_qpj) {
        ++planner_wins;
      } else {
        std::printf("GATE: planner QoA/J %.3f <= best fixed %.3f in %s\n",
                    pr.qpj, best_fixed_qpj, cell.name);
        gate_ok = false;
      }
    }
  }

  bench.sample("planner_wins_lossy", static_cast<double>(planner_wins));
  bench.sample("planner_min_margin_lossy", min_margin);
  std::printf("planner beats every fixed (T_M, backend) config in all %zu "
              "lossy cells: %s (min margin %.2fx)\n\n",
              lossy_cells, gate_ok ? "yes" : "NO (GATE FAILED)", min_margin);
  if (!gate_ok) return 1;

  const std::string path = bench.write();
  // A missing BENCH json would silently weaken the CI baseline gate.
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
