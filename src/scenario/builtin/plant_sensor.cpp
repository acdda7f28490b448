// Scenario `plant_sensor`: a safety-critical, time-sensitive industrial
// sensor (§5).
//
// A pressure controller on an 8 MHz MSP430-class MCU runs a hard-real-time
// control task every T_M, phased so nominal measurement instants land
// inside the control windows -- the worst case for a strict schedule. The
// three conflict policies are three DeviceSpecs differing only in
// `conflict_policy` (the lenient retry window comes with the policy); each
// runs over a simulated week and a mid-week infection must still be
// caught.
#include "attest/directory.h"
#include "attest/service.h"
#include "attest/transport.h"
#include "malware/malware.h"
#include "scenario/scenario.h"
#include "swarm/provision.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

struct PlantRun {
  uint64_t measurements = 0;
  uint64_t deferred = 0;
  uint64_t skipped = 0;
  double interference_s = 0.0;
  bool infection_detected = false;
};

PlantRun run_week(attest::ConflictPolicy policy, double window_factor,
                  Duration tm, Duration task_len, Duration horizon) {
  swarm::DeviceSpec spec;
  spec.tm = tm;
  spec.conflict_policy = policy;
  spec.lenient_window_factor = window_factor;
  spec.app_ram_bytes = 10 * 1024;
  spec.store_slots = 64;
  spec.key = bytes_of("plant-sensor-key-0123456789abcde");

  sim::EventQueue sim;
  swarm::DeviceStack device = swarm::build_device_stack(sim, spec);
  attest::Prover& prover = *device.prover;

  // Verifier side: one directory record judged through the shared service
  // over the in-process transport.
  attest::DeviceDirectory directory;
  const attest::DeviceId dev =
      directory.add(/*node=*/0, swarm::build_device_record(spec, device));
  attest::DirectTransport transport;
  transport.attach(/*node=*/0, prover);
  attest::AttestationService service(sim, transport, directory,
                                     attest::ServiceConfig{});

  prover.start();

  // Control windows [tm - 1min, tm + 1min) around every nominal
  // measurement instant.
  for (Time at = Time::zero() + tm - Duration::minutes(1);
       at < Time::zero() + horizon; at = at + tm) {
    prover.add_critical_task(at, task_len);
  }

  // Mid-week infection: persistent for 90 minutes, then covers its tracks.
  malware::MobileMalware intruder(sim, prover);
  intruder.schedule(Time::zero() + Duration::hours(80),
                    Duration::minutes(90));

  PlantRun result;
  for (Time at = Time::zero() + Duration::hours(12);
       at <= Time::zero() + horizon; at = at + Duration::hours(12)) {
    sim.schedule_at(at, [&, dev] {
      const auto outcomes = service.collect_now({dev}, /*k=*/40);
      result.infection_detected |= outcomes.at(0).report.infection_detected;
    });
  }

  sim.run_until(Time::zero() + horizon);
  result.measurements = prover.stats().measurements;
  result.deferred = prover.stats().aborted;
  result.skipped = prover.stats().skipped;
  result.interference_s = prover.stats().task_interference.to_seconds();
  return result;
}

const char* policy_name(attest::ConflictPolicy p) {
  switch (p) {
    case attest::ConflictPolicy::kMeasureAnyway: return "strict";
    case attest::ConflictPolicy::kSkip: return "skip";
    case attest::ConflictPolicy::kAbortAndReschedule: return "lenient";
  }
  return "?";
}

class PlantSensorScenario : public Scenario {
 public:
  std::string name() const override { return "plant_sensor"; }
  std::string description() const override {
    return "hard-real-time sensor, one week: strict vs skip vs lenient "
           "conflict policy; mid-week infection must be caught";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"tm", "20m", "measurement period == control-task period"},
        {"task", "2m", "control-task length"},
        {"days", "7", "simulated days"},
        {"window_factor", "2", "lenient w: retry window as multiple of T_M"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    const Duration tm = params.get_duration("tm", Duration::minutes(20));
    const Duration task_len =
        params.get_duration("task", Duration::minutes(2));
    const Duration horizon =
        Duration::hours(24 * params.get_u64("days", 7, kMaxDays));
    const double w = params.get_double("window_factor", 2.0);

    sink.note("tm_min", tm.to_seconds() / 60.0);
    sink.note("days", params.get_u64("days", 7));

    bool lenient_clean = false, lenient_detected = false;
    for (const auto policy : {attest::ConflictPolicy::kMeasureAnyway,
                              attest::ConflictPolicy::kSkip,
                              attest::ConflictPolicy::kAbortAndReschedule}) {
      const PlantRun r = run_week(policy, w, tm, task_len, horizon);
      sink.row("policies",
               {{"policy", policy_name(policy)},
                {"measurements", r.measurements},
                {"deferred", r.deferred},
                {"skipped", r.skipped},
                {"interference_s", r.interference_s},
                {"infection_detected", r.infection_detected}});
      if (policy == attest::ConflictPolicy::kAbortAndReschedule) {
        lenient_clean = r.interference_s == 0.0;
        lenient_detected = r.infection_detected;
      }
    }
    // The paper's §5 takeaway must hold: lenient scheduling removes all
    // interference without losing the detection.
    return lenient_clean && lenient_detected ? 0 : 1;
  }
};

ERASMUS_SCENARIO(PlantSensorScenario)

}  // namespace
}  // namespace erasmus::scenario
