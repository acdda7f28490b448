// Scenario parameters: string key=value pairs with typed accessors.
//
// Every scenario declares its knobs as ParamSpecs (name, default, help).
// The erasmus_run CLI prints them, and ParamMap::from_args rejects any key
// they do not declare. The map holds each spec's default text until a
// given value replaces it, so a spec's default is the only default a knob
// has: an absent key reads it through the same parser as a given value,
// and no getter takes a default of its own. `describe`, the README knob
// table and the run therefore cannot disagree, and a scenario that reads
// a key it never declared throws std::logic_error instead of quietly
// using a literal.
#pragma once

#include <cstdint>
#include <map>
#include <set>
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
  /// A map that declares nothing: every read throws std::logic_error.
  ParamMap() = default;

  /// Parses "key=value" tokens against `specs`. Throws
  /// std::invalid_argument on a token without '=' or with an empty key,
  /// and names every key that no spec declares in one error. A key given
  /// twice keeps its last value.
  static ParamMap from_args(const std::vector<std::string>& args,
                            const std::vector<ParamSpec>& specs);

  /// True only for a key given in the arguments, not for one that reads
  /// its spec's default.
  bool has(std::string_view key) const;

  /// Typed getters: the given value, else the key's spec default, through
  /// the same parser. An unparsable value throws std::invalid_argument
  /// naming the key; a key no spec declares throws std::logic_error.
  std::string get_str(std::string_view key) const;
  uint64_t get_u64(std::string_view key) const;
  /// get_u64 bounded above, for knobs narrowed to a smaller type or scaled
  /// into the nanosecond clock: a value over `max` throws
  /// std::invalid_argument naming the key, the value and `max`, instead of
  /// silently wrapping into some other experiment.
  uint64_t get_u64_at_most(std::string_view key, uint64_t max) const;
  double get_double(std::string_view key) const;
  bool get_bool(std::string_view key) const;
  /// Duration with a required unit ("10m", "90s", "2h" -- see
  /// parse_duration). Every T_M/T_C-style knob goes through this, so CLI
  /// users never guess whether a raw number means seconds or minutes.
  sim::Duration get_duration(std::string_view key) const;
  /// Energy with a required unit ("40mJ", "2J" -- see parse_energy).
  sim::Energy get_energy(std::string_view key) const;

 private:
  /// The given value, else the spec default; std::logic_error when no
  /// spec declares `key`.
  const std::string& text(std::string_view key) const;

  /// Every declared key, holding its given value or its spec default.
  std::map<std::string, std::string, std::less<>> values_;
  std::set<std::string, std::less<>> given_;
};

}  // namespace erasmus::scenario
