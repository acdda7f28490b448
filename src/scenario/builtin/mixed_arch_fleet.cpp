// Scenario `mixed_arch_fleet`: one fleet, several security architectures.
//
// The paper evaluates ERASMUS on SMART+ (8 MHz MSP430, Fig. 6) and HYDRA
// (1 GHz i.MX6, Fig. 8) and claims applicability to TrustLite/TyTAN; real
// deployments run all of them side by side. The `mix` parameter is the
// FleetPlan composition grammar ("smartplus:0.7,hydra:0.3"): slices
// interleave proportionally over device ids, each architecture gets its
// paper platform profile, and `tm_classes` layers heterogeneous
// measurement periods on top. Everything is collected through the one
// shared AttestationService; the per-architecture table contrasts
// measurement cost (an MSP430 measurement takes seconds, an i.MX6 one
// milliseconds) at identical protocol behaviour. One device is infected
// mid-run to show detection is architecture-independent.
#include <algorithm>

#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

class MixedArchFleetScenario : public Scenario {
 public:
  std::string name() const override { return "mixed_arch_fleet"; }
  std::string description() const override {
    return "heterogeneous fleet from one FleetPlan: arch mix grammar + T_M "
           "classes, one shared verifier service, per-arch cost table";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"devices", "60", "fleet size"},
        {"threads", "1", "shard/worker threads (wall-clock only; metrics "
                         "are thread-count independent)"},
        {"seed", "7", "mobility + key seed"},
        {"mix", "smartplus:0.7,hydra:0.3",
         "arch:weight[,arch:weight...] composition (smartplus, hydra, "
         "trustlite); slices interleave proportionally"},
        {"tm_classes", "5m,20m",
         "comma-separated T_M classes; device id picks class id mod count"},
        {"rounds", "6", "collection rounds"},
        {"interval", "30m", "time between collections"},
        {"k", "8", "records collected per device per round"},
        {"field", "160", "field side (metres)"},
        {"range", "55", "radio range (metres)"},
        {"infect_device", "17", "device infected mid-run (skipped when "
                                ">= devices)"},
        {"infect_at", "40m", "infection time into the run"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const std::string mix_text = params.get_str("mix");
    const auto mix = swarm::parse_arch_mix(mix_text);
    const std::vector<Duration> classes =
        parse_duration_list(params.get_str("tm_classes"));
    const uint64_t seed = params.get_u64("seed");

    ShardedFleetConfig cfg;
    cfg.plan =
        swarm::FleetPlan(static_cast<size_t>(params.get_u64("devices")), seed);
    for (const auto& [kind, weight] : mix) {
      swarm::DeviceSpec spec;
      spec.arch = kind;
      spec.profile = swarm::default_profile_for(kind);
      spec.app_ram_bytes = 2 * 1024;
      spec.store_slots = 64;
      cfg.plan.add_mix(weight, spec);
    }
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
    sink.note("mix", mix_text);
    sink.note("rounds", static_cast<uint64_t>(cfg.rounds));

    ShardedFleetRunner runner(cfg);

    const uint64_t infect_raw = params.get_u64("infect_device");
    if (infect_raw < cfg.plan.devices()) {
      runner.schedule_on_device(
          static_cast<swarm::DeviceId>(infect_raw),
          Time::zero() + params.get_duration("infect_at"),
          [](attest::Prover& p) {
            p.memory().write(p.attested_region(), 32, bytes_of("IMPLANT"),
                             false);
          });
      sink.note("infected_arch",
                hw::to_string(runner.spec(
                    static_cast<swarm::DeviceId>(infect_raw)).arch));
    }

    const auto rounds = runner.run(sink);
    size_t flagged_rounds = 0;
    for (const auto& r : rounds) flagged_rounds += r.flagged > 0;
    sink.note("rounds_with_flagged_device",
              static_cast<uint64_t>(flagged_rounds));

    // Per-architecture cost/health table: same protocol, per-platform
    // measurement cost from the paper's Fig. 6 / Fig. 8 models.
    std::vector<hw::ArchKind> seen;
    for (const auto& [kind, weight] : mix) {
      (void)weight;
      if (std::find(seen.begin(), seen.end(), kind) != seen.end()) continue;
      seen.push_back(kind);
      uint64_t devices = 0, measurements = 0, collections = 0;
      double busy_s = 0.0;
      for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
        if (runner.spec(id).arch != kind) continue;
        ++devices;
        measurements += runner.prover(id).stats().measurements;
        collections += runner.prover(id).stats().collections;
        busy_s +=
            runner.prover(id).stats().total_measurement_time.to_seconds();
      }
      sink.row("arch_classes",
               {{"arch", hw::to_string(kind)},
                {"devices", devices},
                {"measurements", measurements},
                {"collections", collections},
                {"mean_measurement_ms",
                 measurements == 0
                     ? 0.0
                     : busy_s * 1000.0 / static_cast<double>(measurements)}});
    }
    return 0;
  }
};

ERASMUS_SCENARIO(MixedArchFleetScenario)

}  // namespace
}  // namespace erasmus::scenario
