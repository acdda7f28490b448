// Heterogeneous device provisioning: per-device DeviceSpecs and the
// FleetPlan that composes them into a fleet.
//
// The paper evaluates ERASMUS across *heterogeneous* populations -- SMART+
// on MSP430 next to HYDRA on ARM (Figs. 6/8), regular next to irregular
// schedules, strict next to lenient conflict policies. A DeviceSpec is the
// complete recipe for ONE device: architecture kind, cost-model profile,
// scheduler, conflict policy, memory sizes and key. A FleetPlan
// deterministically expands (seed, N, composition rules) into N specs:
//
//   FleetPlan plan = FleetPlan::uniform(1000, /*key_seed=*/7);
//   plan.add_mix(0.7, smart_spec).add_mix(0.3, hydra_spec);   // 70/30 split
//   plan.cycle_tm({5min, 10min});                             // T_M classes
//   plan.override_range(0, 10, [](DeviceSpec& s) { ... });    // first ten
//
// Expansion is a pure function of the plan: spec construction never looks
// at wall clocks, RNG state or shard layout, which is what lets the
// sharded runner split a heterogeneous 1000-device fleet across any thread
// count and reproduce a single-queue run byte for byte. Mixed slices are
// interleaved proportionally (largest-deficit order), not concatenated, so
// every architecture class is spread uniformly over the field and over the
// shards.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "attest/directory.h"
#include "attest/prover.h"
#include "hw/factory.h"
#include "sim/device_profile.h"
#include "swarm/mobility.h"
#include "swarm/topology.h"

namespace erasmus::swarm {

/// Which measurement-timing policy a device runs (paper §3.1/§3.5).
enum class SchedulerKind : uint8_t {
  kRegular,    // fixed T_M
  kIrregular,  // key-derived interval in [irregular_lower, irregular_upper)
};

/// The complete recipe for one prover device. Defaults describe the
/// paper's baseline: SMART+ on an 8 MHz MSP430, regular 10-minute T_M.
struct DeviceSpec {
  hw::ArchKind arch = hw::ArchKind::kSmartPlus;
  sim::DeviceProfile profile = sim::DeviceProfile::msp430_8mhz();
  crypto::MacAlgo algo = crypto::MacAlgo::kHmacSha256;

  SchedulerKind scheduler = SchedulerKind::kRegular;
  sim::Duration tm = sim::Duration::minutes(10);
  /// Irregular-schedule interval bounds (SchedulerKind::kIrregular only).
  sim::Duration irregular_lower = sim::Duration::minutes(5);
  sim::Duration irregular_upper = sim::Duration::minutes(15);

  attest::ConflictPolicy conflict_policy =
      attest::ConflictPolicy::kMeasureAnyway;
  /// Lenient retry window w (>= 1, §5); applies under kAbortAndReschedule.
  double lenient_window_factor = 2.0;

  size_t app_ram_bytes = 4 * 1024;
  size_t rom_bytes = 8 * 1024;  // SMART+ only
  size_t store_slots = 16;

  /// Device key K. Left empty in composition rules, it is derived from the
  /// plan's key seed at expansion; build_device_stack rejects empty keys.
  Bytes key;
};

/// Per-device key derived from the fleet seed; in reality each device is
/// provisioned with an independent K at manufacture.
Bytes fleet_device_key(uint64_t seed, DeviceId id);

namespace detail {
/// Shared out-of-range formatter for every bounds-checked fleet accessor
/// ("<who>: device id <id> >= fleet size <n>").
[[noreturn]] void throw_bad_device_id(const char* who, DeviceId id,
                                      size_t fleet_size);
}  // namespace detail

/// The nominal measurement period of a spec: T_M for regular schedules,
/// the midpoint of [L, U) for irregular ones. Drives stagger offsets and
/// QoA math.
sim::Duration nominal_tm(const DeviceSpec& spec);

/// The first-measurement offset of device `id` of `n`: (id + 1) * tm / n.
/// Fleets always stagger (paper §6: it bounds the fraction of the swarm
/// busy at any instant).
sim::Duration stagger_offset(sim::Duration tm, DeviceId id, size_t n);

/// One full device: a security architecture (by interface -- any ArchKind)
/// plus its prover. Construction depends only on the spec -- never on
/// which EventQueue the prover is wired to -- which is what lets the
/// sharded runner split a fleet across per-thread queues and still
/// reproduce a single-queue run bit for bit. The verifier side lives in a
/// shared DeviceDirectory, not on the device.
struct DeviceStack {
  std::unique_ptr<hw::SecurityArch> arch;
  hw::RegionId app_region{};
  hw::RegionId store_region{};
  std::unique_ptr<attest::Prover> prover;
};

/// Builds the device `spec` describes, scheduling on `queue`. Throws
/// std::invalid_argument on an empty key or zero-sized memory regions.
DeviceStack build_device_stack(sim::EventQueue& queue,
                               const DeviceSpec& spec);

/// The verifier-side record for a freshly built (known-good) stack: the
/// provisioned key and the golden digest of its attested memory.
attest::DeviceRecord build_device_record(const DeviceSpec& spec,
                                         const DeviceStack& stack);

/// A deterministic recipe for N devices. Composition rules apply in a
/// fixed order at expand() time:
///   1. the mix slice for the id (proportional interleaving; the base
///      spec when no slices were added),
///   2. cycle_tm (T_M class by id, round-robin),
///   3. override_range edits, in the order they were added,
///   4. key derivation from key_seed for specs with an empty key.
class FleetPlan {
 public:
  FleetPlan() = default;
  FleetPlan(size_t devices, uint64_t key_seed)
      : devices_(devices), key_seed_(key_seed) {}

  /// A homogeneous fleet of `base` devices (the old FleetConfig shape).
  static FleetPlan uniform(size_t devices, uint64_t key_seed,
                           DeviceSpec base = {});

  /// Adds a mix slice: `weight` is the slice's share of the fleet relative
  /// to the other slices (weights need not sum to 1). Once any slice is
  /// added, ALL devices come from slices and the base spec is unused.
  /// Slices interleave proportionally over device ids. Throws on
  /// non-positive or non-finite weight.
  FleetPlan& add_mix(double weight, DeviceSpec variant);

  /// Assigns T_M classes round-robin: device id gets tms[id % tms.size()].
  /// An empty vector clears the rule.
  FleetPlan& cycle_tm(std::vector<sim::Duration> tms);

  /// Applies `edit` to devices [first, first + count). Overrides stack in
  /// the order added and may change anything, including the key.
  FleetPlan& override_range(DeviceId first, size_t count,
                            std::function<void(DeviceSpec&)> edit);

  /// The spec list, ids 0..devices-1. Pure function of the plan.
  std::vector<DeviceSpec> expand() const;

  size_t devices() const { return devices_; }
  uint64_t key_seed() const { return key_seed_; }
  FleetPlan& set_devices(size_t n) { devices_ = n; return *this; }
  FleetPlan& set_key_seed(uint64_t s) { key_seed_ = s; return *this; }

  MobilityConfig mobility;

 private:
  struct Slice {
    double weight = 1.0;
    DeviceSpec spec;
  };
  struct RangeOverride {
    DeviceId first = 0;
    size_t count = 0;
    std::function<void(DeviceSpec&)> edit;
  };

  size_t devices_ = 10;
  uint64_t key_seed_ = 7;
  DeviceSpec base_;
  std::vector<Slice> mix_;
  std::vector<sim::Duration> tm_cycle_;
  std::vector<RangeOverride> overrides_;
};

/// Parses the CLI composition grammar "arch:weight[,arch:weight...]", e.g.
/// "smartplus:0.7,hydra:0.3". Each architecture gets its paper platform
/// profile (HYDRA -> 1 GHz i.MX6, SMART+/TrustLite -> 8 MHz MSP430).
/// Throws std::invalid_argument on malformed input.
std::vector<std::pair<hw::ArchKind, double>> parse_arch_mix(
    std::string_view text);

/// The paper's evaluation platform for an architecture.
sim::DeviceProfile default_profile_for(hw::ArchKind kind);

}  // namespace erasmus::swarm
