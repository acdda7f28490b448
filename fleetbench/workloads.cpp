#include "workloads.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/hex.h"
#include "crypto/sha256.h"

namespace fleetbench {

using erasmus::sim::Duration;
namespace hw = erasmus::hw;
namespace scenario = erasmus::scenario;
namespace swarm = erasmus::swarm;

namespace {

constexpr size_t kDirectDevices = 2000;
constexpr size_t kOverlayDevices = 3000;
// Reduced sizes keep each workload's shape (same density, same knobs) at a
// tenth of the devices, so a threads=1 run stays a few seconds.
constexpr size_t kReducedDivisor = 10;

swarm::DeviceSpec spec_for(hw::ArchKind arch, Duration tm) {
  swarm::DeviceSpec spec;
  spec.arch = arch;
  spec.profile = swarm::default_profile_for(arch);
  spec.app_ram_bytes = 1024;
  spec.store_slots = 32;
  spec.tm = tm;
  return spec;
}

// Field side that keeps `devices` at the density of `ref_devices` in a
// `ref_field`-metre square.
double scaled_field(double ref_field, size_t ref_devices, size_t devices) {
  return ref_field * std::sqrt(static_cast<double>(devices) /
                               static_cast<double>(ref_devices));
}

// The mixed fleet of direct_collect: 60% SMART+, 30% HYDRA, 10% TrustLite,
// walking at 1-3 m/s at the density of the 1000-device heterogeneous bench
// (400 m field, 60 m radio range).
scenario::ShardedFleetConfig direct_fleet(size_t devices, uint64_t seed,
                                          Duration tm) {
  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan(devices, seed);
  cfg.plan.add_mix(0.6, spec_for(hw::ArchKind::kSmartPlus, tm))
      .add_mix(0.3, spec_for(hw::ArchKind::kHydra, tm))
      .add_mix(0.1, spec_for(hw::ArchKind::kTrustLite, tm));
  cfg.plan.mobility.field_size = scaled_field(400.0, 1000, devices);
  cfg.plan.mobility.radio_range = 60.0;
  cfg.plan.mobility.speed_min = 1.0;
  cfg.plan.mobility.speed_max = 3.0;
  cfg.plan.mobility.seed = seed;
  cfg.backend = scenario::CollectionBackend::kDirect;
  return cfg;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "direct_collect", "overlay_agg"};
  return kNames;
}

scenario::ShardedFleetConfig make_config(std::string_view name, uint64_t seed,
                                         size_t threads, Size size) {
  const bool full = size == Size::kFull;
  scenario::ShardedFleetConfig cfg;
  if (name == "direct_collect") {
    // One self-measurement per device per round (T_M = round interval)
    // against a 16-record collection: serve + verify dominate. Every
    // measurement and serve is charged to an unlimited battery, and four
    // roaming-malware chains hop between devices, so the energy and
    // adversary layers run on every shard.
    const size_t devices =
        full ? kDirectDevices : kDirectDevices / kReducedDivisor;
    cfg = direct_fleet(devices, seed, Duration::minutes(10));
    cfg.round_interval = Duration::minutes(10);
    cfg.rounds = full ? 48 : 6;
    cfg.k = 16;
    cfg.energy.metered = true;
    cfg.energy.battery = {};  // unlimited: full accounting, nobody goes dark
    cfg.adversary.mode = erasmus::adversary::Mode::kRoaming;
    cfg.adversary.chains = 4;
    cfg.adversary.seed = seed;
  } else if (name == "overlay_agg") {
    // SMART+ only (cheap to build) at the density of the 10k-device / 2 km
    // aggregation cell: the coordinator's radio work dominates.
    const size_t devices =
        full ? kOverlayDevices : kOverlayDevices / kReducedDivisor;
    cfg.plan = swarm::FleetPlan::uniform(
        devices, seed,
        spec_for(hw::ArchKind::kSmartPlus, Duration::minutes(10)));
    cfg.plan.mobility.field_size = scaled_field(2000.0, 10000, devices);
    cfg.plan.mobility.radio_range = 60.0;
    cfg.plan.mobility.speed_min = 1.0;
    cfg.plan.mobility.speed_max = 3.0;
    cfg.plan.mobility.seed = seed;
    cfg.round_interval = Duration::minutes(30);
    // One round, as in the relay bench's 10k cell: an iteration takes under
    // a second, so a run holds dozens of samples of the round, and the
    // mobility trajectories the link checks search stay short.
    cfg.rounds = 1;
    cfg.k = 8;
    cfg.backend = scenario::CollectionBackend::kOverlay;
    cfg.overlay.ttl = 80;
    cfg.overlay.queue_depth = 1024;
    cfg.overlay.collect_deadline = Duration::seconds(120);
    cfg.overlay.response_timeout = Duration::seconds(5);
    // One flood per round. A retry re-floods the whole field whenever a
    // single device is momentarily isolated, which some seeds hit in every
    // round and others in none: with retries the run's radio work varied
    // 3x between seeds. Isolated devices count as unreachable instead.
    cfg.overlay.max_retries = 0;
    cfg.overlay.aggregation.enabled = true;
    cfg.overlay.aggregation.election = {
        erasmus::aggregate::ElectionMode::kDepthBand, 2};
    cfg.overlay.aggregation.window = Duration::millis(200);
    cfg.window = scenario::WindowSpec::parse("fleet");
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "' (expected direct_collect or overlay_agg)");
  }
  cfg.threads = threads;
  return cfg;
}

std::string sha256_hex(std::string_view text) {
  erasmus::crypto::Sha256 hash;
  hash.update({reinterpret_cast<const uint8_t*>(text.data()), text.size()});
  return erasmus::to_hex(hash.finalize());
}

std::string run_to_json(std::string_view name,
                        scenario::ShardedFleetConfig config) {
  scenario::ShardedFleetRunner runner(std::move(config));
  std::ostringstream out;
  scenario::JsonSink sink(out);
  sink.begin_run(name);
  runner.run(sink);
  sink.end_run();
  return out.str();
}

}  // namespace fleetbench
