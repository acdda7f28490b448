// Virtual time for the discrete-event simulation.
//
// All device, network and protocol timing in this library is *virtual*:
// cryptographic work really executes on the host, but elapsed time is
// charged from a DeviceProfile cost model so experiments are deterministic
// and reproduce the paper's target platforms (8 MHz MSP430, 1 GHz i.MX6)
// regardless of host speed.
//
// Time is a strong type wrapping nanoseconds-since-boot; Duration wraps a
// nanosecond span. Both are 64-bit, giving ~584 years of range.
#pragma once

#include <cstdint>
#include <string>

namespace erasmus::sim {

/// A span of virtual time, in nanoseconds.
class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(uint64_t ns) : ns_(ns) {}

  static constexpr Duration nanos(uint64_t v) { return Duration(v); }
  static constexpr Duration micros(uint64_t v) { return Duration(v * 1000); }
  static constexpr Duration millis(uint64_t v) {
    return Duration(v * 1'000'000);
  }
  static constexpr Duration seconds(uint64_t v) {
    return Duration(v * 1'000'000'000);
  }
  static constexpr Duration minutes(uint64_t v) { return seconds(v * 60); }
  static constexpr Duration hours(uint64_t v) { return seconds(v * 3600); }

  constexpr uint64_t ns() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double to_millis() const { return static_cast<double>(ns_) / 1e6; }

  constexpr bool is_zero() const { return ns_ == 0; }

  constexpr Duration operator+(Duration other) const {
    return Duration(ns_ + other.ns_);
  }
  constexpr Duration operator-(Duration other) const {
    return Duration(ns_ - other.ns_);
  }
  constexpr Duration operator*(uint64_t k) const { return Duration(ns_ * k); }
  constexpr Duration operator/(uint64_t k) const { return Duration(ns_ / k); }
  constexpr uint64_t operator/(Duration other) const {
    return ns_ / other.ns_;
  }
  constexpr auto operator<=>(const Duration&) const = default;

 private:
  uint64_t ns_ = 0;
};

/// An instant of virtual time (nanoseconds since simulation start).
class Time {
 public:
  constexpr Time() = default;
  constexpr explicit Time(uint64_t ns) : ns_(ns) {}

  static constexpr Time zero() { return Time(0); }
  static constexpr Time max() { return Time(UINT64_MAX); }

  constexpr uint64_t ns() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }

  constexpr Time operator+(Duration d) const { return Time(ns_ + d.ns()); }
  constexpr Time operator-(Duration d) const { return Time(ns_ - d.ns()); }
  constexpr Duration operator-(Time other) const {
    return Duration(ns_ - other.ns_);
  }
  constexpr auto operator<=>(const Time&) const = default;

 private:
  uint64_t ns_ = 0;
};

/// Renders a duration as a short human string ("1.50 s", "285.60 ms", ...).
std::string to_string(Duration d);

}  // namespace erasmus::sim
