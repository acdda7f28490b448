// Scenario parameters: string key=value pairs with typed accessors.
//
// Every scenario declares its knobs as ParamSpecs (name, default, help) so
// the erasmus_run CLI can print them and reject typos; at run time the
// parsed ParamMap hands back typed values, and each getter call passes
// its own default for an absent key. That default must equal the spec's:
// the scenario-digest check (tools/check_scenario_digests.py, ctest
// `scenario_digests`) reruns every scenario with each spec default passed
// explicitly and requires the same metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/energy.h"
#include "sim/time.h"

namespace erasmus::scenario {

/// Parses a human-friendly duration: a non-negative number with a required
/// unit suffix -- "10m", "90s", "1.5h", "250ms", "2d". Units: ms, s, m (or
/// min), h, d. Throws std::invalid_argument on a missing/unknown unit, a
/// negative or non-numeric value.
sim::Duration parse_duration(const std::string& text);

/// Comma-separated parse_duration list ("5m,10m,20m"); rejects empty lists
/// and empty entries.
std::vector<sim::Duration> parse_duration_list(const std::string& text);

/// Parses a human-friendly energy value: a non-negative number with a
/// required unit suffix -- "500mJ", "2J", "750uJ", "1.5kJ". Units: uJ, mJ,
/// J, kJ (case-insensitive). Throws std::invalid_argument on a missing or
/// unknown unit, a negative or non-numeric value -- same loud-rejection
/// convention as parse_duration, so `battery=40` never silently means
/// 40 of anything.
sim::Energy parse_energy(const std::string& text);

/// The longest whole-day horizon the 64-bit nanosecond clock can hold
/// (`days` knobs are bounded by it).
inline constexpr uint64_t kMaxDays =
    UINT64_MAX / sim::Duration::hours(24).ns();

struct ParamSpec {
  std::string key;
  std::string default_value;
  std::string help;
};

class ParamMap {
 public:
  ParamMap() = default;

  /// Parses "key=value" tokens. Throws std::invalid_argument on a token
  /// without '=' or with an empty key.
  static ParamMap from_args(const std::vector<std::string>& args);

  void set(std::string key, std::string value);
  bool has(std::string_view key) const;

  /// Typed getters; `def` is returned when the key is absent. A present but
  /// unparsable value throws std::invalid_argument naming the key.
  std::string get_str(std::string_view key, std::string_view def) const;
  uint64_t get_u64(std::string_view key, uint64_t def) const;
  /// get_u64 bounded above, for knobs narrowed to a smaller type or scaled
  /// into the nanosecond clock: a value over `max` throws
  /// std::invalid_argument naming the key, the value and `max`, instead of
  /// silently wrapping into some other experiment.
  uint64_t get_u64(std::string_view key, uint64_t def, uint64_t max) const;
  double get_double(std::string_view key, double def) const;
  bool get_bool(std::string_view key, bool def) const;
  /// Duration with a required unit ("10m", "90s", "2h" -- see
  /// parse_duration). Every T_M/T_C-style knob goes through this, so CLI
  /// users never guess whether a raw number means seconds or minutes.
  sim::Duration get_duration(std::string_view key, sim::Duration def) const;
  /// Energy with a required unit ("40mJ", "2J" -- see parse_energy).
  sim::Energy get_energy(std::string_view key, sim::Energy def) const;

  /// Sorted key -> value view (deterministic iteration for sinks).
  const std::map<std::string, std::string, std::less<>>& entries() const {
    return entries_;
  }

  /// Keys present here but not in `specs` (CLI typo detection).
  std::vector<std::string> unknown_keys(
      const std::vector<ParamSpec>& specs) const;

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

}  // namespace erasmus::scenario
