// Scenario `campaign_sweep`: the scriptable QoA parameter explorer.
//
// One device (a DeviceSpec, so architecture and schedule are both knobs),
// a mobile-malware campaign, and the audit summary -- the quickest way to
// explore T_M/T_C/schedule choices without writing code.
#include "attest/qoa.h"
#include "malware/campaign.h"
#include "scenario/scenario.h"
#include "swarm/provision.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;

class CampaignSweepScenario : public Scenario {
 public:
  std::string name() const override { return "campaign_sweep"; }
  std::string description() const override {
    return "one device vs a mobile-malware campaign: detection rate, "
           "latency and QoA facts for a T_M/T_C/schedule choice";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"arch", "smartplus", "security architecture (smartplus, hydra, "
                              "trustlite)"},
        {"tm", "10m", "regular T_M"},
        {"tc", "60m", "collection period T_C"},
        {"horizon", "48h", "campaign length"},
        {"infections", "20", "mobile-malware infections"},
        {"dwell", "15m", "dwell per infection"},
        {"seed", "1", "arrival seed"},
        {"irregular", "0", "use irregular U[irr_lo,irr_hi] schedule"},
        {"irr_lo", "5m", "irregular lower bound"},
        {"irr_hi", "15m", "irregular upper bound"},
        {"slots", "64", "measurement store capacity (records)"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const Duration tm = params.get_duration("tm");
    const Duration tc = params.get_duration("tc");
    const Duration horizon = params.get_duration("horizon");
    const Duration dwell = params.get_duration("dwell");
    const bool irregular = params.get_bool("irregular");

    swarm::DeviceSpec spec;
    spec.arch = hw::arch_kind_from_string(params.get_str("arch"));
    spec.profile = swarm::default_profile_for(spec.arch);
    spec.tm = tm;
    spec.scheduler = irregular ? swarm::SchedulerKind::kIrregular
                               : swarm::SchedulerKind::kRegular;
    spec.irregular_lower = params.get_duration("irr_lo");
    spec.irregular_upper = params.get_duration("irr_hi");
    spec.store_slots = static_cast<size_t>(params.get_u64("slots"));
    spec.key = bytes_of("cli-device-key-0123456789abcdef!");

    sim::EventQueue sim;
    swarm::DeviceStack device = swarm::build_device_stack(sim, spec);

    const attest::DeviceRecord record =
        swarm::build_device_record(spec, device);
    device.prover->start();

    const attest::QoAParams qoa{tm, tc};
    sink.note("arch", hw::to_string(spec.arch));
    sink.note("tm_min", tm.to_seconds() / 60.0);
    sink.note("schedule", irregular ? "irregular" : "regular");
    sink.note("tc_min", tc.to_seconds() / 60.0);
    sink.note("horizon_hours", horizon.to_seconds() / 3600.0);
    sink.note("k_per_collection",
              static_cast<uint64_t>(qoa.measurements_per_collection()));
    sink.note("expected_freshness_min",
              qoa.expected_freshness().to_seconds() / 60.0);
    sink.note("min_buffer_slots",
              static_cast<uint64_t>(qoa.min_buffer_slots()));
    sink.note("buffer_safe", qoa.buffer_safe(spec.store_slots));

    malware::CampaignConfig cc;
    cc.horizon = horizon;
    cc.tc = tc;
    cc.infection_count = static_cast<size_t>(params.get_u64("infections"));
    cc.dwell = dwell;
    cc.seed = params.get_u64("seed");
    const auto result = malware::run_mobile_campaign(sim, *device.prover,
                                                     record, cc);

    sink.note("measurements", device.prover->stats().measurements);
    sink.note("collections", static_cast<uint64_t>(result.collections));
    sink.note("infections_ground_truth",
              static_cast<uint64_t>(result.infections));
    sink.note("measured_while_present",
              static_cast<uint64_t>(result.measured));
    sink.note("detected", static_cast<uint64_t>(result.detected));
    sink.note("detection_rate", result.detection_rate());
    sink.note("mean_detection_latency_min",
              result.mean_detection_latency().to_seconds() / 60.0);
    const double analytic = attest::detection_prob_regular(dwell, tm);
    sink.note("analytic_detection_bound",
              analytic > 1.0 ? 1.0 : analytic);
    return 0;
  }
};

ERASMUS_SCENARIO(CampaignSweepScenario)

}  // namespace
}  // namespace erasmus::scenario
