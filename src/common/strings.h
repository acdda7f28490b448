// Deterministic string rendering shared by the metrics sinks and the
// bench reporter.
#pragma once

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

}  // namespace erasmus
