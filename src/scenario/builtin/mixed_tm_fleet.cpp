// Scenario `mixed_tm_fleet`: heterogeneous measurement periods in one fleet.
//
// Real deployments mix device classes: battery-starved sensors measuring
// every 40 min next to mains-powered gateways measuring every 5 min. The
// T_M classes come straight from FleetPlan::cycle_tm (device id mod class
// count, so classes spread uniformly over the field and the shards), the
// fleet runs under one collection schedule, and the final per-class table
// shows the QoA/energy trade the paper's §4 reasons about: short-T_M
// classes stay fresh, long-T_M classes save measurements at the cost of
// staleness.
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;

class MixedTmFleetScenario : public Scenario {
 public:
  std::string name() const override { return "mixed_tm_fleet"; }
  std::string description() const override {
    return "fleet with per-device T_M classes from a FleetPlan cycle; "
           "per-class measurement/freshness trade-off table";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"devices", "48", "fleet size"},
        {"threads", "1", "shard/worker threads"},
        {"seed", "7", "mobility + key seed"},
        {"rounds", "8", "collection rounds"},
        {"interval", "30m", "time between collections"},
        {"k", "12", "records collected per device per round"},
        {"field", "150", "field side (metres)"},
        {"range", "55", "radio range (metres)"},
        {"tm_classes", "5m,10m,20m,40m",
         "comma-separated T_M classes; device id picks class id mod count"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const std::vector<Duration> classes =
        parse_duration_list(params.get_str("tm_classes"));
    const uint64_t seed = params.get_u64("seed");

    swarm::DeviceSpec base;
    base.app_ram_bytes = 2 * 1024;
    base.store_slots = 64;

    ShardedFleetConfig cfg;
    cfg.plan = swarm::FleetPlan::uniform(
        static_cast<size_t>(params.get_u64("devices")), seed, base);
    cfg.plan.cycle_tm(classes);
    cfg.plan.mobility.field_size = params.get_double("field");
    cfg.plan.mobility.radio_range = params.get_double("range");
    cfg.plan.mobility.speed_min = 1.0;
    cfg.plan.mobility.speed_max = 3.0;
    cfg.plan.mobility.seed = seed;
    cfg.threads = static_cast<size_t>(params.get_u64("threads"));
    cfg.rounds = static_cast<size_t>(params.get_u64("rounds"));
    cfg.round_interval = params.get_duration("interval");
    cfg.k = static_cast<size_t>(params.get_u64("k"));

    sink.note("devices", static_cast<uint64_t>(cfg.plan.devices()));
    sink.note("seed", seed);
    sink.note("rounds", static_cast<uint64_t>(cfg.rounds));

    ShardedFleetRunner runner(cfg);
    runner.run(sink);

    const Duration horizon = cfg.round_interval * cfg.rounds;
    for (size_t c = 0; c < classes.size(); ++c) {
      uint64_t devices = 0, measurements = 0, collections = 0;
      for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
        if (id % classes.size() != c) continue;
        ++devices;
        measurements += runner.prover(id).stats().measurements;
        collections += runner.prover(id).stats().collections;
      }
      const double tm_min = classes[c].to_seconds() / 60.0;
      sink.row("tm_classes",
               {{"tm_min", tm_min},
                {"devices", devices},
                {"measurements", measurements},
                {"collections", collections},
                {"measurements_per_device_h",
                 devices == 0
                     ? 0.0
                     : static_cast<double>(measurements) /
                           static_cast<double>(devices) /
                           (horizon.to_seconds() / 3600.0)},
                {"expected_freshness_min", tm_min / 2.0}});
    }
    return 0;
  }
};

ERASMUS_SCENARIO(MixedTmFleetScenario)

}  // namespace
}  // namespace erasmus::scenario
