#include "swarm/provision.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "attest/measurement_store.h"
#include "common/serde.h"
#include "crypto/hmac_drbg.h"

namespace erasmus::swarm {

Bytes fleet_device_key(uint64_t seed, DeviceId id) {
  // HMAC-DRBG(le64(seed) || le32(id), "erasmus-fleet-key"), first 32
  // bytes, on stack buffers: the key is the one allocation.
  std::array<uint8_t, 12> input;
  const std::array<uint8_t, 8> seed_le = le64(seed), id_le = le64(id);
  std::copy_n(seed_le.begin(), 8, input.begin());
  std::copy_n(id_le.begin(), 4, input.begin() + 8);
  constexpr std::string_view kPersonalization = "erasmus-fleet-key";
  Bytes key(32);
  crypto::HmacDrbg::generate_once(
      input,
      {reinterpret_cast<const uint8_t*>(kPersonalization.data()),
       kPersonalization.size()},
      key);
  return key;
}

namespace detail {
void throw_bad_device_id(const char* who, DeviceId id, size_t fleet_size) {
  throw std::out_of_range(std::string(who) + ": device id " +
                          std::to_string(id) + " >= fleet size " +
                          std::to_string(fleet_size));
}
}  // namespace detail

sim::Duration nominal_tm(const DeviceSpec& spec) {
  if (spec.scheduler == SchedulerKind::kIrregular) {
    return (spec.irregular_lower + spec.irregular_upper) / 2;
  }
  return spec.tm;
}

sim::Duration stagger_offset(sim::Duration tm, DeviceId id, size_t n) {
  return tm * (id + 1) / static_cast<uint64_t>(n);
}

DeviceStack build_device_stack(sim::EventQueue& queue,
                               const DeviceSpec& spec) {
  if (spec.key.empty()) {
    throw std::invalid_argument(
        "build_device_stack: spec has no key (expand() a FleetPlan or set "
        "one explicitly)");
  }
  if (spec.app_ram_bytes == 0 || spec.store_slots == 0) {
    throw std::invalid_argument(
        "build_device_stack: app_ram_bytes and store_slots must be > 0");
  }
  const size_t store_bytes =
      spec.store_slots * attest::MeasurementStore::record_size_for(spec.algo);

  DeviceStack stack;
  hw::BuiltArch built = hw::make_arch(spec.arch, spec.key,
                                      spec.app_ram_bytes, store_bytes,
                                      spec.rom_bytes);
  stack.arch = std::move(built.arch);
  stack.app_region = built.app_region;
  stack.store_region = built.store_region;

  std::unique_ptr<attest::Scheduler> sched;
  switch (spec.scheduler) {
    case SchedulerKind::kRegular:
      sched = std::make_unique<attest::RegularScheduler>(spec.tm);
      break;
    case SchedulerKind::kIrregular:
      if (spec.irregular_lower >= spec.irregular_upper) {
        throw std::invalid_argument(
            "build_device_stack: irregular schedule needs lower < upper");
      }
      sched = std::make_unique<attest::IrregularScheduler>(
          spec.key, spec.irregular_lower, spec.irregular_upper);
      break;
  }
  if (spec.conflict_policy == attest::ConflictPolicy::kAbortAndReschedule) {
    sched = std::make_unique<attest::LenientScheduler>(
        std::move(sched), spec.lenient_window_factor);
  }

  attest::ProverConfig pc;
  pc.algo = spec.algo;
  pc.profile = spec.profile;
  pc.conflict_policy = spec.conflict_policy;
  stack.prover = std::make_unique<attest::Prover>(
      queue, *stack.arch, stack.app_region, stack.store_region,
      std::move(sched), pc);
  return stack;
}

attest::DeviceRecord build_device_record(const DeviceSpec& spec,
                                         const DeviceStack& stack) {
  attest::DeviceRecord record;
  record.key = crypto::MacKey(spec.algo, spec.key);
  // While the app RAM maps its zero image, its digest is the one cached
  // beside the image (R10); the prover still hashes it at every
  // self-measurement.
  record.set_golden(stack.arch->memory()
                        .digest(stack.app_region, attest::hash_for(spec.algo))
                        .to_bytes());
  return record;
}

FleetPlan FleetPlan::uniform(size_t devices, uint64_t key_seed,
                             DeviceSpec base) {
  FleetPlan plan(devices, key_seed);
  plan.base_ = std::move(base);
  return plan;
}

FleetPlan& FleetPlan::add_mix(double weight, DeviceSpec variant) {
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    throw std::invalid_argument("FleetPlan::add_mix: weight must be > 0");
  }
  mix_.push_back(Slice{weight, std::move(variant)});
  return *this;
}

FleetPlan& FleetPlan::cycle_tm(std::vector<sim::Duration> tms) {
  tm_cycle_ = std::move(tms);
  return *this;
}

FleetPlan& FleetPlan::override_range(DeviceId first, size_t count,
                                     std::function<void(DeviceSpec&)> edit) {
  overrides_.push_back(RangeOverride{first, count, std::move(edit)});
  return *this;
}

std::vector<DeviceSpec> FleetPlan::expand() const {
  std::vector<DeviceSpec> specs;
  specs.reserve(devices_);

  // Proportional interleaving (Bresenham over slice quotas): device i goes
  // to the slice with the largest accumulated deficit w_s*(i+1) - n_s, so
  // a 30/70 mix reads ...BABBABB... instead of AAABBBBBBB and every class
  // spreads uniformly over the field and over the shards.
  double total_weight = 0.0;
  for (const Slice& s : mix_) total_weight += s.weight;
  std::vector<size_t> assigned(mix_.size(), 0);

  for (DeviceId id = 0; id < devices_; ++id) {
    const DeviceSpec* source = &base_;
    if (!mix_.empty()) {
      size_t best = 0;
      double best_deficit = -1.0;
      for (size_t s = 0; s < mix_.size(); ++s) {
        const double deficit =
            mix_[s].weight / total_weight * static_cast<double>(id + 1) -
            static_cast<double>(assigned[s]);
        if (deficit > best_deficit) {
          best_deficit = deficit;
          best = s;
        }
      }
      ++assigned[best];
      source = &mix_[best].spec;
    }
    DeviceSpec spec = *source;
    if (!tm_cycle_.empty()) spec.tm = tm_cycle_[id % tm_cycle_.size()];
    for (const RangeOverride& o : overrides_) {
      if (id >= o.first && id - o.first < o.count && o.edit) o.edit(spec);
    }
    if (spec.key.empty()) spec.key = fleet_device_key(key_seed_, id);
    specs.push_back(std::move(spec));
  }
  return specs;
}

sim::DeviceProfile default_profile_for(hw::ArchKind kind) {
  return kind == hw::ArchKind::kHydra ? sim::DeviceProfile::imx6_1ghz()
                                      : sim::DeviceProfile::msp430_8mhz();
}

std::vector<std::pair<hw::ArchKind, double>> parse_arch_mix(
    std::string_view text) {
  std::vector<std::pair<hw::ArchKind, double>> mix;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view entry = text.substr(pos, comma - pos);
    const size_t colon = entry.find(':');
    if (entry.empty() || colon == 0 || colon == std::string_view::npos ||
        colon + 1 == entry.size()) {
      throw std::invalid_argument(
          "arch mix: expected arch:weight[,arch:weight...], got '" +
          std::string(text) + "'");
    }
    const hw::ArchKind kind = hw::arch_kind_from_string(entry.substr(0, colon));
    const std::string weight_text(entry.substr(colon + 1));
    size_t used = 0;
    double weight = 0.0;
    try {
      weight = std::stod(weight_text, &used);
    } catch (const std::exception&) {
      used = std::string::npos;
    }
    if (used != weight_text.size() || !(weight > 0.0) ||
        !std::isfinite(weight)) {
      throw std::invalid_argument("arch mix: '" + weight_text +
                                  "' is not a positive weight");
    }
    mix.emplace_back(kind, weight);
    pos = comma + 1;
  }
  return mix;
}

}  // namespace erasmus::swarm
