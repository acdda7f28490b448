// Scenario `swarm_patrol`: a mobile drone swarm patrolling a field (§6).
//
// N devices move at vehicle speeds; a maintenance rover (co-located with
// the root device) passes through every round and collects stored
// self-measurements from whatever part of the swarm is momentarily
// reachable. One device picks up persistent malware early in the patrol.
// Contrasts with an on-demand swarm attestation attempt over the same
// mobility and shows staggered scheduling keeping the swarm available.
//
// Provisioned through a uniform FleetPlan (the `arch` parameter selects
// the security architecture fleet-wide); `threads=8 devices=1000` uses all
// cores and produces byte-identical metrics to `threads=1`.
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"
#include "swarm/protocols.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

class SwarmPatrolScenario : public Scenario {
 public:
  std::string name() const override { return "swarm_patrol"; }
  std::string description() const override {
    return "mobile drone swarm with rover collection rounds; one device "
           "infected mid-patrol; sharded multi-core fleet";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"devices", "20", "fleet size"},
        {"threads", "1", "shard/worker threads (wall-clock only; metrics "
                         "are thread-count independent)"},
        {"seed", "2024", "mobility + key seed"},
        {"arch", "smartplus", "security architecture (smartplus, hydra, "
                              "trustlite)"},
        {"tm", "10m", "self-measurement period T_M"},
        {"rounds", "6", "collection rounds"},
        {"interval", "30m", "time between rover passes"},
        {"k", "8", "records collected per device per round"},
        {"field", "200", "field side (metres)"},
        {"range", "60", "radio range (metres)"},
        {"speed_min", "6", "min speed (m/s)"},
        {"speed_max", "12", "max speed (m/s)"},
        {"infect_device", "13", "device infected mid-patrol (skipped when "
                                ">= devices)"},
        {"infect_at", "42m", "infection time into the patrol"},
        {"battery", "", "per-device battery with a REQUIRED unit (e.g. "
                        "500mJ, 2J); devices that exhaust it go dark. "
                        "Empty = unmetered; 0J = metered but unlimited "
                        "(joule accounting only)"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const uint64_t seed = params.get_u64("seed");
    swarm::DeviceSpec base;
    base.arch = hw::arch_kind_from_string(params.get_str("arch"));
    base.profile = swarm::default_profile_for(base.arch);
    base.tm = params.get_duration("tm");
    base.app_ram_bytes = 2 * 1024;
    base.store_slots = 64;

    ShardedFleetConfig cfg;
    cfg.plan = swarm::FleetPlan::uniform(
        static_cast<size_t>(params.get_u64("devices")), seed, base);
    cfg.plan.mobility.field_size = params.get_double("field");
    cfg.plan.mobility.radio_range = params.get_double("range");
    cfg.plan.mobility.speed_min = params.get_double("speed_min");
    cfg.plan.mobility.speed_max = params.get_double("speed_max");
    cfg.plan.mobility.seed = seed;
    cfg.threads = static_cast<size_t>(params.get_u64("threads"));
    cfg.rounds = static_cast<size_t>(params.get_u64("rounds"));
    cfg.round_interval = params.get_duration("interval");
    cfg.k = static_cast<size_t>(params.get_u64("k"));
    if (params.has("battery")) {
      cfg.energy.metered = true;
      cfg.energy.battery = params.get_energy("battery");
    }

    sink.note("devices", static_cast<uint64_t>(cfg.plan.devices()));
    sink.note("seed", seed);
    sink.note("arch", hw::to_string(base.arch));
    sink.note("tm_min", base.tm.to_seconds() / 60.0);
    sink.note("rounds", static_cast<uint64_t>(cfg.rounds));

    ShardedFleetRunner runner(cfg);

    // Range-check before narrowing: a 64-bit id must not wrap into range.
    const uint64_t infect_raw = params.get_u64("infect_device");
    if (infect_raw < cfg.plan.devices()) {
      const auto infect = static_cast<swarm::DeviceId>(infect_raw);
      runner.schedule_on_device(
          infect, Time::zero() + params.get_duration("infect_at"),
          [](attest::Prover& p) {
            p.memory().write(p.attested_region(), 64, bytes_of("IMPLANT"),
                             false);
          });
    }

    const auto rounds = runner.run(sink);
    size_t flagged_rounds = 0;
    for (const auto& r : rounds) flagged_rounds += r.flagged > 0;
    sink.note("rounds_with_flagged_device",
              static_cast<uint64_t>(flagged_rounds));

    if (const energy::FleetMeter* meter = runner.energy_meter()) {
      sink.note("fleet_spent_mj", meter->totals().spent_mj());
      sink.note("dark_devices_final",
                static_cast<uint64_t>(meter->dark_count()));
    }

    // Contrast: one SEDA-style on-demand round vs ERASMUS collection over
    // the swarm state at the end of the patrol.
    swarm::SwarmProtocolConfig pc;
    pc.measurement_time = Duration::seconds(7);
    const Time end =
        Time::zero() + cfg.round_interval * cfg.rounds;
    const auto od =
        swarm::run_ondemand_round(runner.mobility(), end, 0, pc);
    const auto er = swarm::run_erasmus_collection_round(runner.mobility(),
                                                        end, 0, pc);
    sink.note("ondemand_attested", static_cast<uint64_t>(od.attested));
    sink.note("ondemand_duration_s", od.duration.to_seconds());
    sink.note("collection_attested", static_cast<uint64_t>(er.attested));
    sink.note("collection_duration_s", er.duration.to_seconds());

    // Staggering keeps the swarm available (§6, last paragraph).
    sink.note("max_busy_aligned",
              static_cast<uint64_t>(swarm::max_concurrent_busy(
                  cfg.plan.devices(), base.tm, Duration::seconds(7),
                  false)));
    sink.note("max_busy_staggered",
              static_cast<uint64_t>(swarm::max_concurrent_busy(
                  cfg.plan.devices(), base.tm, Duration::seconds(7),
                  true)));
    return 0;
  }
};

ERASMUS_SCENARIO(SwarmPatrolScenario)

}  // namespace
}  // namespace erasmus::scenario
