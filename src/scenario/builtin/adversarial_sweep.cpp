// Scenario `adversarial_sweep`: the paper's T_M-vs-dwell detection curve,
// fleet edition (§3.5, §7).
//
// Sweeps the self-measurement period T_M across a roaming-malware campaign
// with a fixed useful-work dwell and emits one `sweep` row per T_M:
// detection probability, mean detection latency, and the migration/evasion
// counts behind them. Once T_M drops below the dwell, a measurement-aware
// adversary runs out of slack -- after its evasion budget it must sit
// through a measurement, and detection probability climbs toward 1. Each
// point is its own deterministic fleet run (same seed, fresh runner), so
// the curve is reproducible to the byte at any thread count.
#include "adversary/adversary.h"
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;

class AdversarialSweepScenario : public Scenario {
 public:
  std::string name() const override { return "adversarial_sweep"; }
  std::string description() const override {
    return "T_M sweep vs a roaming-malware campaign: detection "
           "probability and latency per measurement period";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"devices", "32", "fleet size"},
        {"threads", "1", "shard/worker threads (wall-clock only; metrics "
                         "are thread-count independent)"},
        {"seed", "2024", "mobility + key + itinerary seed"},
        {"tms", "30m,20m,15m,10m,6m,4m", "comma-separated T_M values to "
                                         "sweep (each REQUIRES a unit)"},
        {"adversary_dwell", "12m", "useful-work time the malware needs on "
                                   "one host (REQUIRED unit)"},
        {"migration", "aware", "roaming strategy: random | aware | dwell"},
        {"adversary_chains", "4", "independent infection chains per point"},
        {"rounds", "4", "collection rounds per point"},
        {"interval", "30m", "time between collection rounds"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const std::vector<Duration> tms =
        parse_duration_list(params.get_str("tms"));
    const Duration dwell = params.get_duration("adversary_dwell");
    const std::string migration_name = params.get_str("migration");
    const adversary::Migration migration =
        adversary::parse_migration(migration_name);
    const size_t devices = static_cast<size_t>(params.get_u64("devices"));
    const uint64_t seed = params.get_u64("seed");

    sink.note("devices", static_cast<uint64_t>(devices));
    sink.note("seed", seed);
    sink.note("dwell_min", dwell.to_seconds() / 60.0);
    sink.note("migration", migration_name);
    sink.note("points", static_cast<uint64_t>(tms.size()));

    for (const Duration tm : tms) {
      swarm::DeviceSpec base;
      base.profile = swarm::default_profile_for(base.arch);
      base.tm = tm;
      base.app_ram_bytes = 2 * 1024;
      base.store_slots = 64;

      ShardedFleetConfig cfg;
      cfg.plan = swarm::FleetPlan::uniform(devices, seed, base);
      cfg.plan.mobility.seed = seed;
      cfg.threads = static_cast<size_t>(params.get_u64("threads"));
      cfg.rounds = static_cast<size_t>(params.get_u64("rounds"));
      cfg.round_interval = params.get_duration("interval");
      cfg.adversary.mode = adversary::Mode::kRoaming;
      cfg.adversary.migration = migration;
      cfg.adversary.dwell = dwell;
      cfg.adversary.chains =
          static_cast<size_t>(params.get_u64("adversary_chains"));
      cfg.adversary.seed = seed;

      // Per-point fleet rows would swamp the sweep table; the inner run
      // stays silent and only the campaign outcome is reported.
      NullSink quiet;
      ShardedFleetRunner runner(cfg);
      runner.run(quiet);

      const adversary::Engine* engine = runner.adversary_engine();
      const adversary::Engine::Snapshot snap = engine->snapshot();
      sink.row("sweep",
               {{"tm_min", tm.to_seconds() / 60.0},
                {"chains", static_cast<uint64_t>(engine->chain_count())},
                {"detected",
                 static_cast<uint64_t>(engine->detected_chains())},
                {"detection_probability", engine->detection_probability()},
                {"detection_latency_min",
                 engine->mean_detection_latency().to_seconds() / 60.0},
                {"migrations", snap.migrations},
                {"evasions", snap.evasions},
                {"captures", snap.captures}});
    }
    return 0;
  }
};

ERASMUS_SCENARIO(AdversarialSweepScenario)

}  // namespace
}  // namespace erasmus::scenario
