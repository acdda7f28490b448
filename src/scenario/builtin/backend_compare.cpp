// Scenario `backend_compare`: the same infected swarm collected three
// ways -- direct contact, multi-hop overlay, and overlay with hierarchical
// aggregation -- under slow/fast mobility with and without network churn.
//
// Every cell of the grid runs an identical roaming-malware campaign (same
// seed, same itinerary) so the `compare` table isolates what the
// collection backend and the network weather change: how much of the fleet
// each round reaches, and how quickly the verifier turns captured
// measurements into a detected campaign. Churn cells add a scheduled
// half-fleet partition plus (overlay only) a radio loss burst.
#include "adversary/adversary.h"
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

class BackendCompareScenario : public Scenario {
 public:
  std::string name() const override { return "backend_compare"; }
  std::string description() const override {
    return "infected swarm under direct vs overlay vs overlay+aggregate "
           "collection, across mobility speeds and network churn";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"devices", "36", "fleet size per cell"},
        {"threads", "1", "shard/worker threads (wall-clock only; metrics "
                         "are thread-count independent)"},
        {"seed", "2024", "mobility + key + itinerary seed"},
        {"tm", "8m", "self-measurement period T_M"},
        {"adversary_dwell", "12m", "roaming-malware dwell (REQUIRED unit)"},
        {"adversary_chains", "3", "infection chains per cell"},
        {"rounds", "3", "collection rounds per cell"},
        {"interval", "30m", "time between collection rounds"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const size_t devices = static_cast<size_t>(params.get_u64("devices"));
    const size_t rounds = static_cast<size_t>(params.get_u64("rounds"));
    const Duration interval = params.get_duration("interval");
    const uint64_t seed = params.get_u64("seed");
    const Duration tm = params.get_duration("tm");

    sink.note("devices", static_cast<uint64_t>(devices));
    sink.note("seed", seed);
    sink.note("tm_min", tm.to_seconds() / 60.0);
    sink.note("rounds", static_cast<uint64_t>(rounds));

    struct Backend {
      const char* name;
      CollectionBackend kind;
      bool aggregate;
    };
    struct Mobility {
      const char* name;
      double speed_min, speed_max;
    };
    const Backend backends[] = {
        {"direct", CollectionBackend::kDirect, false},
        {"overlay", CollectionBackend::kOverlay, false},
        {"overlay_agg", CollectionBackend::kOverlay, true},
    };
    const Mobility mobilities[] = {{"slow", 2.0, 4.0}, {"fast", 10.0, 16.0}};
    const bool churns[] = {false, true};

    for (const Backend& backend : backends) {
      for (const Mobility& mobility : mobilities) {
        for (const bool churn : churns) {
          swarm::DeviceSpec base;
          base.profile = swarm::default_profile_for(base.arch);
          base.tm = tm;
          base.app_ram_bytes = 2 * 1024;
          base.store_slots = 64;

          ShardedFleetConfig cfg;
          cfg.plan = swarm::FleetPlan::uniform(devices, seed, base);
          cfg.plan.mobility.field_size = 300.0;
          cfg.plan.mobility.radio_range = 60.0;
          cfg.plan.mobility.speed_min = mobility.speed_min;
          cfg.plan.mobility.speed_max = mobility.speed_max;
          cfg.plan.mobility.seed = seed;
          cfg.threads = static_cast<size_t>(params.get_u64("threads"));
          cfg.rounds = rounds;
          cfg.round_interval = interval;

          cfg.backend = backend.kind;
          if (backend.kind == CollectionBackend::kOverlay) {
            cfg.overlay.ttl = 8;
            cfg.overlay.queue_depth = 16;
            cfg.overlay.forward_spacing = Duration::millis(1);
            cfg.overlay.net_latency = Duration::millis(2);
            cfg.overlay.collect_deadline = Duration::seconds(30);
            cfg.overlay.response_timeout = Duration::seconds(10);
            cfg.overlay.max_retries = 1;
            if (backend.aggregate) {
              cfg.overlay.aggregation.enabled = true;
              cfg.overlay.aggregation.election.mode =
                  aggregate::ElectionMode::kDepthBand;
            }
          }

          cfg.adversary.mode = adversary::Mode::kRoaming;
          cfg.adversary.migration = adversary::Migration::kAware;
          cfg.adversary.dwell = params.get_duration("adversary_dwell");
          cfg.adversary.chains =
              static_cast<size_t>(params.get_u64("adversary_chains"));
          cfg.adversary.seed = seed;
          if (churn) {
            // Half-fleet split covering the round-2 collection barrier
            // (rounds land at interval multiples), healing before round
            // 3; the loss burst additionally bites the overlay radio
            // (direct contact has no datagrams to lose).
            cfg.adversary.partitions.push_back(
                {Time::zero() + interval * 2 - Duration::minutes(10),
                 Duration::minutes(15)});
            cfg.adversary.loss_bursts.push_back(
                {Time::zero() + interval * 2 - Duration::minutes(5),
                 Duration::minutes(10), 0.5});
          }

          NullSink quiet;
          ShardedFleetRunner runner(cfg);
          const auto round_results = runner.run(quiet);

          size_t reachable = 0;
          size_t flagged_rounds = 0;
          for (const auto& r : round_results) {
            reachable += r.reachable;
            flagged_rounds += r.flagged > 0;
          }
          const adversary::Engine* engine = runner.adversary_engine();
          const adversary::Engine::Snapshot snap = engine->snapshot();
          sink.row(
              "compare",
              {{"backend", backend.name},
               {"mobility", mobility.name},
               {"churn", churn},
               {"reachable_frac",
                static_cast<double>(reachable) /
                    static_cast<double>(devices * rounds)},
               {"rounds_with_flagged",
                static_cast<uint64_t>(flagged_rounds)},
               {"detected",
                static_cast<uint64_t>(engine->detected_chains())},
               {"detection_probability", engine->detection_probability()},
               {"detection_latency_min",
                engine->mean_detection_latency().to_seconds() / 60.0},
               {"migrations", snap.migrations},
               {"captures", snap.captures}});
        }
      }
    }
    return 0;
  }
};

ERASMUS_SCENARIO(BackendCompareScenario)

}  // namespace
}  // namespace erasmus::scenario
