// Perf baseline for the unified verifier-side AttestationService: one
// collection round over a 1000-device fleet, driven through the
// NetworkTransport on a lossy link (10 ms latency, 10% loss) so the
// session state machine does real timeout/retry work.
//
// Sweeps the bounded in-flight window to expose the dispatch-batching
// trade: a small window serialises the round (virtual time grows), a large
// one floods the link. Emits BENCH_attestation_service.json so future
// batching work (request coalescing, adaptive windows, shard-parallel
// dispatch) has a baseline to beat.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/table.h"
#include "attest/directory.h"
#include "attest/service.h"
#include "attest/transport.h"
#include "swarm/provision.h"

using namespace erasmus;
using sim::Duration;
using sim::Time;

namespace {

constexpr size_t kDevices = 1000;
constexpr uint32_t kRecordsPerDevice = 4;

struct RoundResult {
  double wall_ms = 0.0;
  double virtual_s = 0.0;
  attest::AttestationService::Stats stats;
};

RoundResult run_round(const attest::WindowSpec& window) {
  sim::EventQueue queue;
  net::Network network(queue, Duration::millis(10), /*loss=*/0.10,
                       /*seed=*/42);
  const net::NodeId verifier_node = network.add_node({});

  swarm::DeviceSpec base;
  base.app_ram_bytes = 1024;
  base.store_slots = 16;
  base.tm = Duration::minutes(10);
  const swarm::FleetPlan plan =
      swarm::FleetPlan::uniform(kDevices, /*key_seed=*/42, base);
  const std::vector<swarm::DeviceSpec> specs = plan.expand();

  std::vector<swarm::DeviceStack> stacks;
  attest::DeviceDirectory directory;
  stacks.reserve(kDevices);
  for (swarm::DeviceId id = 0; id < kDevices; ++id) {
    stacks.push_back(swarm::build_device_stack(queue, specs[id]));
    const net::NodeId node = network.add_node({});
    stacks[id].prover->bind(network, node);
    directory.add(node, swarm::build_device_record(specs[id], stacks[id]));
    stacks[id].prover->start(
        swarm::stagger_offset(specs[id].tm, id, kDevices));
  }

  // Accumulate a few self-measurements per device before collecting.
  queue.run_until(Time::zero() + Duration::minutes(45));

  attest::NetworkTransport transport(network, verifier_node);
  attest::ServiceConfig sc;
  sc.k = kRecordsPerDevice;
  sc.response_timeout = Duration::millis(100);
  sc.max_retries = 3;
  sc.window = window;
  sc.keep_audit = false;
  attest::AttestationService service(queue, transport, directory, sc);

  Time last_completion = Time::zero();
  service.set_observer(
      [&](const attest::AttestationService::SessionOutcome& o) {
        last_completion = o.at;
      });

  std::vector<attest::DeviceId> targets(kDevices);
  for (attest::DeviceId id = 0; id < kDevices; ++id) targets[id] = id;

  const Time round_start = queue.now();
  const auto wall_start = std::chrono::steady_clock::now();
  service.collect_now(targets);
  queue.run_until(round_start + Duration::minutes(10));
  const auto wall_end = std::chrono::steady_clock::now();

  RoundResult result;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  result.virtual_s = (last_completion - round_start).to_seconds();
  result.stats = service.stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Already sub-minute at full size: --quick is accepted (CI runs every
  // bench uniformly) and by contract never changes the simulated
  // configuration, so all emitted quantities keep their full-mode values.
  (void)analysis::bench_quick_mode(argc, argv);

  std::printf("=== AttestationService: 1000-device collection round ===\n");
  std::printf("(NetworkTransport, 10 ms latency, 10%% loss, k=%u, "
              "3 retries)\n\n",
              kRecordsPerDevice);

  analysis::BenchReport bench("attestation_service");
  analysis::Table table({"window", "wall ms", "virtual s", "responses",
                         "retries", "unreachable", "peak in-flight"});

  const auto emit = [&](const std::string& label, const RoundResult& r) {
    table.add_row({label, analysis::fmt(r.wall_ms, 1),
                   analysis::fmt(r.virtual_s, 2),
                   std::to_string(r.stats.responses),
                   std::to_string(r.stats.retries),
                   std::to_string(r.stats.unreachable_sessions),
                   std::to_string(r.stats.max_in_flight_seen)});
    const std::string prefix = "window_" + label + "_";
    bench.sample(prefix + "wall_ms", r.wall_ms);
    bench.sample(prefix + "virtual_round_s", r.virtual_s);
    bench.sample(prefix + "responses",
                 static_cast<double>(r.stats.responses));
    bench.sample(prefix + "retries", static_cast<double>(r.stats.retries));
    bench.sample(prefix + "unreachable",
                 static_cast<double>(r.stats.unreachable_sessions));
  };
  for (const size_t window : {32ul, 128ul, 1024ul}) {
    emit(std::to_string(window),
         run_round({attest::WindowSpec::Mode::kFixed, window}));
  }
  // The AIMD controller on the same lossy link: discovers a workable
  // window (capped at the kDevices-entry directory) instead of having one
  // guessed for it.
  emit("adaptive", run_round({attest::WindowSpec::Mode::kAdaptive}));
  std::printf("%s\n", table.render().c_str());
  std::printf("All %zu sessions resolve each run; loss is absorbed by "
              "retries, stragglers land in the audit trail as "
              "unreachable.\n\n",
              kDevices);

  const std::string path = bench.write();
  // A missing BENCH json would silently weaken the CI baseline gate.
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
