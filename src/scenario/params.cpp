#include "scenario/params.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace erasmus::scenario {

namespace {

[[noreturn]] void bad_value(std::string_view key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("parameter '" + std::string(key) + "': '" +
                              value + "' is not a valid " + expected);
}

}  // namespace

sim::Duration parse_duration(const std::string& text) {
  size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  const std::string unit = text.substr(used);
  if (used == 0 || unit.empty() || value < 0.0 ||
      !(value == value) /* NaN */) {
    throw std::invalid_argument(
        "'" + text +
        "' is not a valid duration (expected <number><unit>, e.g. 10m, "
        "90s, 2h; units: ms, s, m/min, h, d)");
  }
  double ns_per_unit = 0.0;
  if (unit == "ms") {
    ns_per_unit = 1e6;
  } else if (unit == "s") {
    ns_per_unit = 1e9;
  } else if (unit == "m" || unit == "min") {
    ns_per_unit = 60e9;
  } else if (unit == "h") {
    ns_per_unit = 3600e9;
  } else if (unit == "d") {
    ns_per_unit = 86400e9;
  } else {
    throw std::invalid_argument("'" + text +
                                "' has an unknown duration unit '" + unit +
                                "' (units: ms, s, m/min, h, d)");
  }
  const double total_ns = value * ns_per_unit;
  if (total_ns > 9e18) {  // Duration is 64-bit nanoseconds (~584 years)
    throw std::invalid_argument("'" + text + "' overflows the virtual clock");
  }
  return sim::Duration(static_cast<uint64_t>(total_ns));
}

std::vector<sim::Duration> parse_duration_list(const std::string& text) {
  std::vector<sim::Duration> list;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = std::min(text.find(',', pos), text.size());
    list.push_back(parse_duration(text.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return list;
}

sim::Energy parse_energy(const std::string& text) {
  size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  std::string unit = text.substr(used);
  for (char& c : unit) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  if (used == 0 || unit.empty() || value < 0.0 || !std::isfinite(value)) {
    throw std::invalid_argument(
        "'" + text +
        "' is not a valid energy (expected <number><unit>, e.g. 40mJ, 2J; "
        "units: uJ, mJ, J, kJ)");
  }
  double uj_per_unit = 0.0;
  if (unit == "uj") {
    uj_per_unit = 1.0;
  } else if (unit == "mj") {
    uj_per_unit = 1e3;
  } else if (unit == "j") {
    uj_per_unit = 1e6;
  } else if (unit == "kj") {
    uj_per_unit = 1e9;
  } else {
    throw std::invalid_argument("'" + text +
                                "' has an unknown energy unit '" +
                                text.substr(used) +
                                "' (units: uJ, mJ, J, kJ)");
  }
  const double uj = value * uj_per_unit;
  if (!std::isfinite(uj)) {
    throw std::invalid_argument("'" + text + "' overflows the energy range");
  }
  return sim::Energy{uj};
}

ParamMap ParamMap::from_args(const std::vector<std::string>& args) {
  ParamMap map;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value, got '" + arg + "'");
    }
    map.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return map;
}

void ParamMap::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

bool ParamMap::has(std::string_view key) const {
  return entries_.find(key) != entries_.end();
}

std::string ParamMap::get_str(std::string_view key,
                              std::string_view def) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? std::string(def) : it->second;
}

uint64_t ParamMap::get_u64(std::string_view key, uint64_t def) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return def;
  const std::string& v = it->second;
  // strtoull "helpfully" wraps negatives and clamps overflow; require pure
  // digits so devices=-1 fails loudly instead of becoming 2^64 - 1.
  if (v.empty() ||
      v.find_first_not_of("0123456789") != std::string::npos) {
    bad_value(key, v, "unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const uint64_t parsed = std::strtoull(v.c_str(), &end, 10);
  if (errno == ERANGE || end != v.c_str() + v.size()) {
    bad_value(key, v, "unsigned integer");
  }
  return parsed;
}

uint64_t ParamMap::get_u64(std::string_view key, uint64_t def,
                           uint64_t max) const {
  const uint64_t value = get_u64(key, def);
  if (value > max) {
    throw std::invalid_argument("parameter '" + std::string(key) + "': " +
                                std::to_string(value) +
                                " exceeds the largest accepted value " +
                                std::to_string(max));
  }
  return value;
}

double ParamMap::get_double(std::string_view key, double def) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return def;
  const std::string& v = it->second;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || !std::isfinite(parsed)) {
    bad_value(key, v, "finite number");
  }
  return parsed;
}

bool ParamMap::get_bool(std::string_view key, bool def) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return def;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  bad_value(key, v, "boolean (1/0/true/false/yes/no/on/off)");
}

sim::Duration ParamMap::get_duration(std::string_view key,
                                     sim::Duration def) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return def;
  try {
    return parse_duration(it->second);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("parameter '" + std::string(key) +
                                "': " + e.what());
  }
}

sim::Energy ParamMap::get_energy(std::string_view key,
                                 sim::Energy def) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return def;
  try {
    return parse_energy(it->second);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("parameter '" + std::string(key) +
                                "': " + e.what());
  }
}

std::vector<std::string> ParamMap::unknown_keys(
    const std::vector<ParamSpec>& specs) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : entries_) {
    (void)value;
    bool found = false;
    for (const auto& spec : specs) {
      if (spec.key == key) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(key);
  }
  return unknown;
}

}  // namespace erasmus::scenario
