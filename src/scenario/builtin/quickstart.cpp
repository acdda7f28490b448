// Scenario `quickstart`: the smallest complete ERASMUS deployment.
//
// One device -- provisioned from a DeviceSpec, so `arch=hydra` swaps the
// whole security architecture under the unchanged stack -- self-measures
// every T_M; the verifier side (a one-entry DeviceDirectory behind an
// AttestationService) collects after an unattended stretch over the
// in-process DirectTransport, validates the history, and reports Quality
// of Attestation.
#include "attest/directory.h"
#include "attest/qoa.h"
#include "attest/service.h"
#include "attest/transport.h"
#include "scenario/scenario.h"
#include "swarm/provision.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

class QuickstartScenario : public Scenario {
 public:
  std::string name() const override { return "quickstart"; }
  std::string description() const override {
    return "one device, one verifier: self-measure every T_M, collect once "
           "after an unattended hour, report QoA";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"arch", "smartplus", "security architecture (smartplus, hydra, "
                              "trustlite)"},
        {"tm", "10m", "self-measurement period T_M"},
        {"tc", "60m", "collection period T_C"},
        {"unattended", "61m", "unattended run before the collection"},
        {"app_ram_kb", "8", "attested application memory (KiB)"},
        {"store_slots", "16", "measurement store capacity (records)"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const Duration tm = params.get_duration("tm");
    const Duration tc = params.get_duration("tc");
    const Duration unattended = params.get_duration("unattended");

    swarm::DeviceSpec spec;
    spec.arch = hw::arch_kind_from_string(params.get_str("arch"));
    spec.profile = swarm::default_profile_for(spec.arch);
    spec.tm = tm;
    spec.app_ram_bytes =
        static_cast<size_t>(params.get_u64("app_ram_kb")) * 1024;
    spec.store_slots = static_cast<size_t>(params.get_u64("store_slots"));
    spec.key = bytes_of("quickstart-key-0123456789abcdef!");

    sim::EventQueue sim;
    swarm::DeviceStack device = swarm::build_device_stack(sim, spec);
    device.prover->start();

    attest::DeviceRecord record = swarm::build_device_record(spec, device);
    record.scheduler = &device.prover->scheduler();
    record.schedule_t0 = tm / Duration::seconds(1);

    attest::DeviceDirectory directory;
    const attest::DeviceId dev = directory.add(/*node=*/0, std::move(record));
    attest::DirectTransport transport;
    transport.attach(/*node=*/0, *device.prover);
    attest::AttestationService service(sim, transport, directory,
                                       attest::ServiceConfig{});

    sim.run_until(Time::zero() + unattended);
    sink.note("arch", hw::to_string(spec.arch));
    sink.note("measurements", device.prover->stats().measurements);
    sink.note("busy_s",
              device.prover->stats().total_measurement_time.to_seconds());

    const attest::QoAParams qoa{tm, tc};
    const size_t k = qoa.measurements_per_collection();
    const auto outcomes =
        service.collect_now({dev}, static_cast<uint32_t>(k));
    const attest::CollectionReport& report = outcomes.at(0).report;

    sink.note("k", static_cast<uint64_t>(k));
    sink.note("collect_processing_ms",
              transport.last_processing().to_millis());
    sink.note("trustworthy", report.device_trustworthy());
    sink.note("infection_detected", report.infection_detected);
    sink.note("tampering_detected", report.tampering_detected);
    sink.note("missing", static_cast<uint64_t>(report.missing));
    sink.note("expected_freshness_min",
              qoa.expected_freshness().to_seconds() / 60.0);
    sink.note("worst_case_detection_delay_min",
              qoa.worst_case_detection_delay().to_seconds() / 60.0);
    sink.note("min_buffer_slots", static_cast<uint64_t>(qoa.min_buffer_slots()));
    if (report.freshness) {
      sink.note("freshness_min", report.freshness->to_seconds() / 60.0);
    }
    return report.device_trustworthy() ? 0 : 1;
  }
};

ERASMUS_SCENARIO(QuickstartScenario)

}  // namespace
}  // namespace erasmus::scenario
