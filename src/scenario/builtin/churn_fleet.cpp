// Scenario `churn_fleet`: devices join and leave mid-run.
//
// Unattended fleets churn: devices power down, move out of the deployment,
// get swapped. At every collection barrier a deterministic coin decides,
// per device, whether a present device leaves (its measurement timer
// stops) or an absent one rejoins (its schedule restarts, like a reboot).
// The per-round table shows ERASMUS absorbing churn gracefully: returning
// devices need only their next T_M before they attest healthy again, and
// collection only ever sees momentarily-present devices.
#include "common/strings.h"
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"
#include "sim/rng.h"

namespace erasmus::scenario {
namespace {

class ChurnFleetScenario : public Scenario {
 public:
  std::string name() const override { return "churn_fleet"; }
  std::string description() const override {
    return "fleet with devices leaving/rejoining at collection barriers; "
           "per-round availability and health";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"devices", "40", "fleet size"},
        {"threads", "1", "shard/worker threads"},
        {"seed", "11", "mobility + key + churn seed"},
        {"rounds", "10", "collection rounds"},
        {"interval", "20m", "time between collections"},
        {"k", "4", "records collected per device per round"},
        {"leave_prob", "0.15", "P(present device leaves) per round"},
        {"rejoin_prob", "0.5", "P(absent device rejoins) per round"},
        {"tm", "10m", "self-measurement period T_M"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const uint64_t seed = params.get_u64("seed");
    swarm::DeviceSpec base;
    base.tm = params.get_duration("tm");
    base.app_ram_bytes = 2 * 1024;
    base.store_slots = 32;

    ShardedFleetConfig cfg;
    cfg.plan = swarm::FleetPlan::uniform(
        static_cast<size_t>(params.get_u64("devices")), seed, base);
    cfg.plan.mobility.field_size = 120.0;
    cfg.plan.mobility.radio_range = 50.0;
    cfg.plan.mobility.speed_min = 1.0;
    cfg.plan.mobility.speed_max = 4.0;
    cfg.plan.mobility.seed = seed;
    cfg.threads = static_cast<size_t>(params.get_u64("threads"));
    cfg.rounds = static_cast<size_t>(params.get_u64("rounds"));
    cfg.round_interval = params.get_duration("interval");
    cfg.k = static_cast<size_t>(params.get_u64("k"));

    const double leave_prob = params.get_double("leave_prob");
    const double rejoin_prob = params.get_double("rejoin_prob");
    require_probability("leave_prob", leave_prob);
    require_probability("rejoin_prob", rejoin_prob);

    sink.note("devices", static_cast<uint64_t>(cfg.plan.devices()));
    sink.note("seed", seed);
    sink.note("leave_prob", leave_prob);
    sink.note("rejoin_prob", rejoin_prob);

    ShardedFleetRunner runner(cfg);

    // Churn runs on the coordinator at barriers with its own RNG stream,
    // so it is deterministic regardless of thread count.
    auto churn_rng = std::make_shared<sim::Rng>(seed ^ 0xC4u);
    uint64_t left_total = 0, rejoined_total = 0;
    const swarm::DeviceId root = cfg.root;
    runner.set_round_hook([churn_rng, leave_prob, rejoin_prob, root,
                           &left_total, &rejoined_total](
                              ShardedFleetRunner& r, size_t, sim::Time) {
      for (swarm::DeviceId id = 0; id < r.size(); ++id) {
        if (id == root) continue;  // the rover's own device never churns
        if (r.present(id)) {
          if (churn_rng->chance(leave_prob)) {
            r.set_present(id, false);
            ++left_total;
          }
        } else if (churn_rng->chance(rejoin_prob)) {
          r.set_present(id, true);
          ++rejoined_total;
        }
      }
    });

    runner.run(sink);
    sink.note("left_total", left_total);
    sink.note("rejoined_total", rejoined_total);
    return 0;
  }
};

ERASMUS_SCENARIO(ChurnFleetScenario)

}  // namespace
}  // namespace erasmus::scenario
