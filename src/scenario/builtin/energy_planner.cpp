// Scenario `energy_planner`: plan a mission for QoA-per-joule, then fly it.
//
// The operator states the mission (malware dwell to catch, radio loss,
// whether there is backhaul infrastructure, the per-device battery);
// energy::plan() picks T_M, the collection backend and the window policy
// maximizing predicted QoA per joule, and THIS scenario then runs the
// chosen configuration on the live metered fleet -- planner predictions
// and measured outcome land side by side in the notes, so the model can
// be audited against the simulation it steers.
//
// QoA here is the paper's detection-quality notion specialized to a dwell
// D: a device measuring every T_M catches an implant resident for D with
// probability min(1, D / T_M); a round's quality is that probability
// summed over devices whose report actually reached the verifier.
#include <algorithm>
#include <cmath>

#include "energy/planner.h"
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

class EnergyPlannerScenario : public Scenario {
 public:
  std::string name() const override { return "energy_planner"; }
  std::string description() const override {
    return "QoA-per-joule mission planning: energy::plan() picks T_M, "
           "backend and window policy, then the metered fleet flies the "
           "plan (predictions vs measurement in the notes)";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"devices", "50", "fleet size"},
        {"threads", "1", "shard/worker threads (wall-clock only; metrics "
                         "are thread-count independent)"},
        {"seed", "2024", "mobility + key + loss seed"},
        {"arch", "smartplus", "security architecture (smartplus, hydra, "
                              "trustlite)"},
        {"dwell", "8m", "malware dwell time the mission must catch"},
        {"rounds", "4", "collection rounds"},
        {"interval", "30m", "time between collection rounds"},
        {"k", "8", "records collected per device per round"},
        {"loss", "0", "per-hop datagram loss probability"},
        {"infrastructure", "off", "direct backhaul to every device exists "
                                  "(on|off); off = field swarm, overlay "
                                  "only"},
        {"budget", "0J", "per-device energy for the WHOLE mission, with a "
                         "REQUIRED unit (e.g. 80mJ, 2J); 0J = mains "
                         "powered (joule accounting only)"},
        {"field", "300", "field side (metres)"},
        {"range", "60", "radio range (metres)"},
        {"speed_min", "6", "min speed (m/s)"},
        {"speed_max", "12", "max speed (m/s)"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const size_t devices = static_cast<size_t>(params.get_u64("devices"));
    const double field = params.get_double("field");
    const double range = params.get_double("range");
    const uint64_t seed = params.get_u64("seed");

    swarm::DeviceSpec base;
    base.arch = hw::arch_kind_from_string(params.get_str("arch"));
    base.profile = swarm::default_profile_for(base.arch);
    base.app_ram_bytes = 2 * 1024;
    base.store_slots = 64;

    // --- Plan ------------------------------------------------------------
    energy::FleetModel fleet;
    fleet.devices = devices;
    fleet.arch = base.arch;
    fleet.profile = base.profile;
    fleet.algo = base.algo;
    fleet.attested_bytes = base.app_ram_bytes;
    fleet.k = static_cast<size_t>(params.get_u64("k"));
    // Radio neighbourhood from the deployment geometry: expected neighbours
    // in a range-disc, expected relay depth across the field.
    fleet.mean_degree = std::max(
        1.0, static_cast<double>(devices) * 3.14159265358979 * range *
                     range / (field * field) -
                 1.0);
    fleet.mean_hops = std::max(1.0, field / (1.4142135624 * range));

    energy::Mission mission;
    mission.dwell = params.get_duration("dwell");
    mission.round_interval = params.get_duration("interval");
    mission.rounds = static_cast<size_t>(params.get_u64("rounds"));
    mission.loss = params.get_double("loss");
    mission.infrastructure = params.get_bool("infrastructure");
    mission.device_budget = params.get_energy("budget");

    const energy::Decision d =
        energy::plan(fleet, mission, obs::global_trace());
    sink.note("planner_backend", std::string(energy::to_string(d.backend)));
    sink.note("planner_tm_s", d.tm.to_seconds());
    sink.note("planner_adaptive_window", d.adaptive_window);
    sink.note("planner_reasons", d.reasons);
    sink.note("predicted_detection_prob", d.detection_prob);
    sink.note("predicted_device_mj",
              d.predicted_device_energy.millijoules());
    sink.note("predicted_qoa_per_joule", d.predicted_qoa_per_joule);

    // --- Fly the plan ----------------------------------------------------
    base.tm = d.tm;
    ShardedFleetConfig cfg;
    cfg.plan = swarm::FleetPlan::uniform(devices, seed, base);
    cfg.plan.mobility.field_size = field;
    cfg.plan.mobility.radio_range = range;
    cfg.plan.mobility.speed_min = params.get_double("speed_min");
    cfg.plan.mobility.speed_max = params.get_double("speed_max");
    cfg.plan.mobility.seed = seed;
    cfg.threads = static_cast<size_t>(params.get_u64("threads"));
    cfg.rounds = mission.rounds;
    cfg.round_interval = mission.round_interval;
    cfg.k = fleet.k;
    cfg.energy.metered = true;
    cfg.energy.battery = mission.device_budget;
    if (d.backend == energy::BackendChoice::kDirect) {
      cfg.backend = CollectionBackend::kDirect;
    } else {
      cfg.backend = CollectionBackend::kOverlay;
      cfg.overlay.net_loss = mission.loss;
      if (d.backend == energy::BackendChoice::kScoped) {
        cfg.overlay.scoped_retries = true;
        cfg.overlay.max_retries = 2;
      }
    }
    cfg.window = WindowSpec::parse(d.adaptive_window ? "adaptive" : "fleet");

    ShardedFleetRunner runner(cfg);
    const auto rounds = runner.run(sink);

    // --- Measure what the plan bought ------------------------------------
    const double p_detect = std::min(
        1.0, mission.dwell.to_seconds() / std::max(1.0, d.tm.to_seconds()));
    double qoa = 0.0;
    size_t collected = 0;
    for (const auto& r : rounds) {
      qoa += static_cast<double>(r.healthy) * p_detect;
      collected += r.reachable;
    }
    const energy::FleetMeter& meter = *runner.energy_meter();
    const double spent_j = meter.totals().spent_mj() / 1e3;
    sink.note("device_collections", static_cast<uint64_t>(collected));
    sink.note("measured_qoa", qoa);
    sink.note("fleet_spent_mj", meter.totals().spent_mj());
    sink.note("measured_qoa_per_joule", spent_j > 0.0 ? qoa / spent_j : 0.0);
    sink.note("dark_devices_final",
              static_cast<uint64_t>(meter.dark_count()));
    return 0;
  }
};

ERASMUS_SCENARIO(EnergyPlannerScenario)

}  // namespace
}  // namespace erasmus::scenario
