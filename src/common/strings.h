// Deterministic string rendering shared by the metrics sinks, the flight
// recorder and the bench reporter.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace erasmus {

/// Shortest round-trip decimal rendering of a double (std::to_chars), with
/// a trailing ".0" kept on integral values so the real-ness stays visible.
/// NaN renders as "null", infinities as +/-"1e999" (JSON-parseable as a
/// number overflow). Byte-deterministic across runs.
std::string format_double(double v);

/// Escapes `s` for embedding in a JSON string literal (quotes not added).
std::string json_escape(std::string_view s);

/// Knob validation: unless `ok`, throws std::invalid_argument("<what>
/// must be <rule>, got <value>"), the value as its shortest round-trip
/// decimal ("1.5", "-60", "nan", "inf"). Write `ok` so NaN makes it false.
void require_value(bool ok, std::string_view what, std::string_view rule,
                   double value);
/// require_value for a probability: 0 <= p <= 1.
void require_probability(std::string_view what, double p);

/// A typed value: a metrics-sink cell or a trace argument. Kept
/// deliberately small: everything a run reports is an integer, a real, a
/// flag or a label.
class Value {
 public:
  Value(uint64_t v) : kind_(Kind::kU64), u64_(v) {}           // NOLINT
  Value(int v) : kind_(Kind::kI64), i64_(v) {}                // NOLINT
  Value(int64_t v) : kind_(Kind::kI64), i64_(v) {}            // NOLINT
  Value(double v) : kind_(Kind::kF64), f64_(v) {}             // NOLINT
  Value(std::string v) : kind_(Kind::kStr), str_(std::move(v)) {}  // NOLINT
  Value(const char* v) : kind_(Kind::kStr), str_(v) {}        // NOLINT
  Value(bool v) : kind_(Kind::kBool), u64_(v ? 1 : 0) {}      // NOLINT

  /// Deterministic plain rendering (CSV cell). Doubles use format_double;
  /// bools render as true/false.
  std::string to_plain() const;
  /// Deterministic JSON rendering (strings quoted and escaped).
  std::string to_json() const;

 private:
  enum class Kind { kU64, kI64, kF64, kStr, kBool };
  Kind kind_;
  uint64_t u64_ = 0;
  int64_t i64_ = 0;
  double f64_ = 0.0;
  std::string str_;
};

}  // namespace erasmus
