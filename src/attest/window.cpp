#include "attest/window.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace erasmus::attest {

WindowSpec WindowSpec::parse(const std::string& text) {
  WindowSpec spec;
  if (text == "fleet") {
    spec.mode = Mode::kFleet;
    return spec;
  }
  if (text == "adaptive") {
    spec.mode = Mode::kAdaptive;
    return spec;
  }
  // strtoull alone is too permissive: it sign-wraps "-5" and clamps
  // overflow to ULLONG_MAX, both of which must throw, not become an
  // effectively unbounded window.
  constexpr unsigned long long kMaxWindow = 1ull << 31;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() ||
      !std::isdigit(static_cast<unsigned char>(text.front())) ||
      end != text.c_str() + text.size() || parsed == 0 ||
      errno == ERANGE || parsed > kMaxWindow) {
    throw std::invalid_argument(
        "window: expected 'fleet', 'adaptive' or a positive integer "
        "(<= 2^31), got '" + text + "'");
  }
  spec.mode = Mode::kFixed;
  spec.fixed = static_cast<size_t>(parsed);
  return spec;
}

WindowController::WindowController(const WindowSpec& spec, size_t fleet)
    : adaptive_(spec.mode == WindowSpec::Mode::kAdaptive),
      // An adaptive window may discover up to a full-fleet window; the
      // floor keeps a loss burst from strangling the round.
      ceiling_(std::max(fleet, kWindowFloor)) {
  switch (spec.mode) {
    case WindowSpec::Mode::kFleet:
      // A fleet-wide batch lets the batched serve/verify path fan the
      // whole round out once, and kOverlay floods the swarm in one batch.
      window_ = std::max<size_t>(1, fleet);
      break;
    case WindowSpec::Mode::kFixed:
      window_ = std::max<size_t>(1, spec.fixed);
      break;
    case WindowSpec::Mode::kAdaptive:
      window_ = clamp_window(kInitialWindow);
      break;
  }
  ssthresh_ = ceiling_;
  // The first congestion signal may back off immediately; subsequent
  // ones are rate-limited against the window size.
  events_since_backoff_ = window_;
  begin_round();
}

size_t WindowController::clamp_window(size_t value) const {
  return std::clamp(value, kWindowFloor, ceiling_);
}

void WindowController::on_response() {
  note_event();  // responses re-open the burst guard like any other event
  if (!adaptive_) return;
  if (window_ < ssthresh_) {
    // Slow start: +1 per response doubles the window per round trip.
    window_ = clamp_window(window_ + 1);
    ack_credit_ = 0;
  } else if (++ack_credit_ >= window_) {
    ack_credit_ = 0;
    window_ = clamp_window(window_ + kAdditiveStep);
  }
  round_max_ = std::max(round_max_, window_);
}

void WindowController::cut_window(double factor) {
  cut_seq_ = send_seq_;  // everything in flight belongs to this cut
  events_since_backoff_ = 0;
  ack_credit_ = 0;
  const auto cut =
      static_cast<size_t>(static_cast<double>(window_) * factor);
  window_ = clamp_window(cut);
  ssthresh_ = window_;
  round_min_ = std::min(round_min_, window_);
}

bool WindowController::on_loss(uint64_t send_seq) {
  note_event();
  if (!adaptive_) return false;
  // Recovery epoch: a timeout of anything sent at or before the last cut
  // is the SAME loss event that caused the cut (one lost flood times out
  // a whole window of correlated sessions). Only a post-cut attempt's
  // timeout is fresh evidence.
  if (send_seq <= cut_seq_) return false;
  cut_window(kLossCut);
  return true;
}

bool WindowController::on_congestion() {
  note_event();
  if (!adaptive_) return false;
  if (events_since_backoff_ < window_) return false;  // same saturation
  cut_window(kCongestionCut);
  return true;
}

void WindowController::begin_round() {
  if (adaptive_ && round_max_ > 0) {
    // The window itself carries over (the fleet and field did not
    // change), but remember the capacity the last round reached: if loss
    // bursts crushed the window late in the round, rediscovery should be
    // exponential up to half that capacity, not additive from the floor.
    ssthresh_ = std::max(ssthresh_, round_max_ / 2);
  }
  round_min_ = window_;
  round_max_ = window_;
}

}  // namespace erasmus::attest
