// Scenario `device_lifecycle`: the full lifecycle of an unattended device.
//
// Provisioning (HKDF per-device keys into a DeviceSpec), steady state (the
// AttestationService collecting over a lossy link into the device's audit
// log), software update (attest-before / install / attest-after with
// golden-digest rotation -- the authority rotates the directory's own
// record, so the rotation is immediately visible to the service), incident
// (malware detected through the service path) and decommissioning
// (authenticated secure erasure + proof of erasure).
#include <cstdint>

#include "attest/directory.h"
#include "attest/maintenance.h"
#include "attest/service.h"
#include "attest/transport.h"
#include "crypto/hkdf.h"
#include "scenario/scenario.h"
#include "swarm/provision.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

class DeviceLifecycleScenario : public Scenario {
 public:
  std::string name() const override { return "device_lifecycle"; }
  std::string description() const override {
    return "provision, collect over a lossy link, software update, "
           "incident, secure decommission -- one device end to end";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"arch", "smartplus", "security architecture (smartplus, hydra, "
                              "trustlite)"},
        {"tm", "10m", "self-measurement period T_M"},
        {"tc", "60m", "collector period T_C"},
        {"loss", "0.15", "network packet-loss probability"},
        {"net_seed", "3", "network loss seed"},
        {"k", "8", "records per collection"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    // --- 1. Provisioning --------------------------------------------------
    const Bytes master = bytes_of("fleet master secret: keep in HSM!");
    const Bytes k_device = crypto::hkdf(master, bytes_of("device-0042"),
                                        bytes_of("erasmus/device-key"), 32);
    sink.note("provisioned_key_bytes", static_cast<uint64_t>(k_device.size()));

    swarm::DeviceSpec spec;
    spec.arch = hw::arch_kind_from_string(
        params.get_str("arch", "smartplus"));
    spec.profile = swarm::default_profile_for(spec.arch);
    spec.tm = params.get_duration("tm", Duration::minutes(10));
    spec.app_ram_bytes = 4 * 1024;
    spec.store_slots = 32;
    spec.key = k_device;

    sim::EventQueue sim;
    swarm::DeviceStack device = swarm::build_device_stack(sim, spec);
    attest::Prover& prover = *device.prover;

    // --- 2. Steady state: AttestationService over a lossy link ------------
    net::Network network(sim, Duration::millis(20),
                         params.get_double("loss", 0.15),
                         params.get_u64("net_seed", 3));
    const net::NodeId hq = network.add_node({});
    const net::NodeId dev_node = network.add_node({});
    prover.bind(network, dev_node);

    attest::DeviceDirectory directory;
    const attest::DeviceId dev =
        directory.add(dev_node, swarm::build_device_record(spec, device));
    attest::NetworkTransport transport(network, hq);
    attest::ServiceConfig sc;
    sc.tc = params.get_duration("tc", Duration::minutes(60));
    sc.k = static_cast<uint32_t>(params.get_u64("k", 8, UINT32_MAX));
    sc.response_timeout = Duration::seconds(5);
    sc.max_retries = 3;
    attest::AttestationService service(sim, transport, directory, sc);

    prover.start();
    service.start();
    sim.run_until(Time::zero() + Duration::hours(24));
    // No caching of the log() reference: it binds to an empty sentinel
    // until the first round touches the device (e.g. under a huge tc).
    sink.note("arch", hw::to_string(spec.arch));
    sink.note("day1_rounds", service.stats().rounds);
    sink.note("day1_responses", service.stats().responses);
    sink.note("day1_retries", service.stats().retries);
    sink.note("day1_trustworthy_fraction",
              service.log(dev).trustworthy_fraction());

    // --- 3. Software update -----------------------------------------------
    // The authority rotates the directory's record in place, so the
    // service judges post-update history against the new image.
    attest::MaintenanceAuthority authority(directory.owned_record(dev), sim);
    const auto update =
        authority.run_update(prover, bytes_of("firmware v2.0 image"));
    sink.note("update_pre_attestation_ok", update.pre_attestation_ok);
    sink.note("update_accepted", update.request_accepted);
    sink.note("update_post_attestation_ok", update.post_attestation_ok);

    // --- 4. Incident --------------------------------------------------------
    sim.schedule_at(sim.now() + Duration::hours(5), [&] {
      prover.memory().write(prover.attested_region(), 99,
                            bytes_of("IMPLANT"), false);
    });
    sim.run_until(sim.now() + Duration::hours(24));
    const auto first = service.log(dev).first_infection_seen();
    sink.note("infection_detected", first.has_value());
    if (first) {
      const auto qoa = service.log(dev).empirical_qoa();
      sink.note("infection_seen_at_h", first->to_seconds() / 3600.0);
      sink.note("empirical_mean_freshness_min",
                qoa.mean_freshness.to_seconds() / 60.0);
      sink.note("audit_rounds", static_cast<uint64_t>(qoa.rounds));
    }

    // --- 5. Decommissioning -------------------------------------------------
    // Updates require a healthy device (attest-before), but secure erasure
    // is exactly what you do to a COMPROMISED device -- it needs only an
    // authentic command, and the erased state is then proven fresh.
    service.stop();
    const auto blocked =
        authority.run_update(prover, bytes_of("recovery image"));
    const auto erase = authority.run_erase(prover);
    sink.note("infected_update_blocked", !blocked.pre_attestation_ok);
    sink.note("erase_accepted", erase.request_accepted);
    sink.note("erased_state_proven", erase.erased_state_proven);

    const bool ok = update.post_attestation_ok && first.has_value() &&
                    !blocked.pre_attestation_ok && erase.request_accepted &&
                    erase.erased_state_proven;
    return ok ? 0 : 1;
  }
};

ERASMUS_SCENARIO(DeviceLifecycleScenario)

}  // namespace
}  // namespace erasmus::scenario
