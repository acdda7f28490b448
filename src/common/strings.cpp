#include "common/strings.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace erasmus {

std::string format_double(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string s(buf, res.ptr);
  // Bare integers read as integers in JSON; keep the real-ness visible.
  if (s.find('.') == std::string::npos &&
      s.find('e') == std::string::npos) {
    s += ".0";
  }
  return s;
}

void require_value(bool ok, std::string_view what, std::string_view rule,
                   double value) {
  if (ok) return;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  throw std::invalid_argument(std::string(what) + " must be " +
                              std::string(rule) + ", got " +
                              std::string(buf, res.ptr));
}

void require_probability(std::string_view what, double p) {
  require_value(p >= 0.0 && p <= 1.0, what, "in [0, 1]", p);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Value::to_plain() const {
  switch (kind_) {
    case Kind::kU64: return std::to_string(u64_);
    case Kind::kI64: return std::to_string(i64_);
    case Kind::kF64: return format_double(f64_);
    case Kind::kStr: return str_;
    case Kind::kBool: return u64_ ? "true" : "false";
  }
  return {};
}

std::string Value::to_json() const {
  if (kind_ != Kind::kStr) return to_plain();
  std::string out = "\"";
  out += json_escape(str_);
  out += '"';
  return out;
}

}  // namespace erasmus
