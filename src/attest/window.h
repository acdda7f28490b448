// AIMD in-flight window control for the attestation service.
//
// The service's dispatch window decides how many collection sessions may
// be in flight at once. A fixed window is either too small (a
// million-device round serialises behind it) or too large (a lossy,
// multi-hop network drowns in requests it will mostly drop). The
// WindowController makes the window adaptive, TCP-style:
//
//  * slow start  -- every on-time response grows the window by one until
//    it crosses the slow-start threshold, so an idle service discovers
//    the network's capacity in O(log fleet) round trips;
//  * congestion avoidance -- past the threshold, growth is additive: one
//    window's worth of responses buys kAdditiveStep more slots;
//  * multiplicative backoff -- a timeout (loss) or a relay-queue
//    saturation signal cuts the window (and the threshold), clamped to
//    the floor. Loss backoffs are guarded by recovery epochs (TCP Reno's
//    trick): every dispatched attempt is stamped with a send sequence,
//    and only the timeout of an attempt sent AFTER the last cut may cut
//    again -- so the correlated timeout wave of one lost flood, however
//    wide the window was, is charged as ONE loss event. Congestion
//    signals (which cannot be tied to a send) instead rate-limit to one
//    backoff per window's worth of events.
//
// Everything is integer/deterministic: the controller is driven purely by
// the service's event order, which the sharded runner keeps
// thread-count-independent, so the 1-vs-8-thread byte-identity invariant
// survives adaptivity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace erasmus::attest {

/// The dispatch window policy. `mode` and `fixed` are its only settable
/// values; the AIMD tuning below is constant.
struct WindowSpec {
  enum class Mode : uint8_t {
    kFleet,     // one slot per directory device: a round is one batch
    kFixed,     // `fixed` slots, forever
    kAdaptive,  // AIMD over [kWindowFloor, max(fleet, kWindowFloor)]
  };
  Mode mode = Mode::kFixed;
  size_t fixed = 64;  // kFixed only

  /// Parses the scenario knob `window=fleet|adaptive|N`. Throws
  /// std::invalid_argument on anything else.
  static WindowSpec parse(const std::string& text);
};

// AIMD tuning. bench_adaptive_window's lossy gate fails without any one of
// the three mechanisms these drive: the recovery epoch, the gentler loss
// cut and the per-round threshold memory (begin_round()).
inline constexpr size_t kInitialWindow = 16;
inline constexpr size_t kWindowFloor = 4;
/// Congestion-avoidance growth per full window of responses.
inline constexpr size_t kAdditiveStep = 1;
/// Backoff factor on a timeout. Gentler than the congestion cut
/// (TCP-Westwood flavour): on a lossy multi-hop radio a timeout is usually
/// random loss, not queue pressure, and the explicit queue-occupancy
/// signal covers the real thing.
inline constexpr double kLossCut = 0.7;
/// Backoff factor on a relay-queue saturation report.
inline constexpr double kCongestionCut = 0.5;
/// Relay queue occupancy (0..1, from Transport::take_congestion()) at or
/// above which the service damps the window. Flood collection keeps
/// root-adjacent queues legitimately busy, so only near-overflow
/// occupancy is treated as congestion.
inline constexpr double kCongestionThreshold = 0.9;

class WindowController {
 public:
  /// `fleet` is the service's directory size: it sizes a kFleet window
  /// and caps an adaptive one.
  WindowController(const WindowSpec& spec, size_t fleet);

  /// Current dispatch window (slots).
  size_t window() const { return window_; }
  bool adaptive() const { return adaptive_; }

  /// Stamps one dispatched attempt; the returned sequence must be handed
  /// back to on_loss() if that attempt times out.
  uint64_t on_send() { return ++send_seq_; }
  /// An on-time response arrived: slow-start or additive growth.
  void on_response();
  /// The attempt stamped `send_seq` timed out. Returns true when the
  /// window was actually cut: only attempts sent after the previous cut
  /// can cut again (recovery epoch), so one lost flood's correlated
  /// timeout wave is one loss event.
  bool on_loss(uint64_t send_seq);
  /// Relay queues report saturation; same multiplicative cut, but
  /// rate-limited to one backoff per window's worth of events (a
  /// congestion report cannot be attributed to a send).
  bool on_congestion();

  /// Starts a round: resets the per-round min/max trackers and, in
  /// adaptive mode, folds the previous round's discovered capacity into
  /// the slow-start threshold -- so a window crushed by late-round loss
  /// bursts regrows exponentially next round instead of crawling
  /// additively from the floor.
  void begin_round();
  /// Smallest/largest window since begin_round() (inclusive of the
  /// starting value).
  size_t round_min() const { return round_min_; }
  size_t round_max() const { return round_max_; }

 private:
  size_t clamp_window(size_t value) const;
  void cut_window(double factor);
  void note_event() { ++events_since_backoff_; }

  bool adaptive_ = false;
  size_t ceiling_ = 0;
  size_t window_ = 0;
  size_t ssthresh_ = 0;      // slow start below this
  size_t ack_credit_ = 0;    // responses toward the next additive step
  uint64_t send_seq_ = 0;    // attempts stamped so far
  uint64_t cut_seq_ = 0;     // send_seq_ at the last cut (epoch boundary)
  uint64_t events_since_backoff_ = 0;
  size_t round_min_ = 0;
  size_t round_max_ = 0;
};

}  // namespace erasmus::attest
