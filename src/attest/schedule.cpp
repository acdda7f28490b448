#include "attest/schedule.h"

#include <stdexcept>

#include "common/serde.h"
#include "crypto/hmac_drbg.h"

namespace erasmus::attest {

RegularScheduler::RegularScheduler(sim::Duration tm) : tm_(tm) {
  if (tm.is_zero()) {
    throw std::invalid_argument("RegularScheduler: T_M must be positive");
  }
}

IrregularScheduler::IrregularScheduler(Bytes key, sim::Duration lower,
                                       sim::Duration upper, sim::Duration tick)
    : key_(std::move(key)), lower_(lower), upper_(upper), tick_(tick) {
  if (key_.empty()) {
    throw std::invalid_argument("IrregularScheduler: key required");
  }
  if (lower_.is_zero() || upper_ <= lower_) {
    throw std::invalid_argument(
        "IrregularScheduler: need 0 < L < U interval bounds");
  }
  if (tick_.is_zero()) {
    throw std::invalid_argument("IrregularScheduler: tick must be positive");
  }
  if (upper_ - lower_ < tick_) {
    // next_interval draws whole ticks from [0, (U - L) / tick).
    throw std::invalid_argument(
        "IrregularScheduler: bounds L = " + sim::to_string(lower_) +
        " and U = " + sim::to_string(upper_) +
        " are closer than one tick (" + sim::to_string(tick_) + ")");
  }
}

sim::Duration IrregularScheduler::next_interval(uint64_t t_ticks) const {
  // CSPRNG_K(t_i): an HMAC-DRBG instantiated from K and the timestamp of
  // the measurement just taken. Deterministic in (K, t_i), so prover and
  // verifier agree; unpredictable without K.
  ByteWriter seed_input;
  seed_input.u64(t_ticks);
  crypto::HmacDrbg drbg(key_, seed_input.bytes());
  const uint64_t span_ticks = (upper_ - lower_) / tick_;
  const uint64_t draw = drbg.next_below(span_ticks);
  return lower_ + tick_ * draw;  // map: x -> x mod (U - L) + L
}

sim::Duration IrregularScheduler::nominal_period() const {
  return (lower_ + upper_) / 2;
}

LenientScheduler::LenientScheduler(std::unique_ptr<Scheduler> base,
                                   double window_factor)
    : base_(std::move(base)), window_factor_(window_factor) {
  if (!base_) {
    throw std::invalid_argument("LenientScheduler: base scheduler required");
  }
  if (window_factor_ < 1.0) {
    throw std::invalid_argument("LenientScheduler: w must be >= 1");
  }
}

sim::Duration LenientScheduler::window_slack() const {
  const double slack_ns =
      (window_factor_ - 1.0) * static_cast<double>(nominal_period().ns());
  return sim::Duration(static_cast<uint64_t>(slack_ns));
}

std::vector<uint64_t> expected_schedule(const Scheduler& sched,
                                        uint64_t t0_ticks, uint64_t t_end_ticks,
                                        sim::Duration tick) {
  std::vector<uint64_t> times;
  uint64_t t = t0_ticks;
  while (t <= t_end_ticks) {
    times.push_back(t);
    const sim::Duration step = sched.next_interval(t);
    const uint64_t step_ticks = step / tick;
    if (step_ticks == 0) {
      throw std::logic_error("expected_schedule: interval below one tick");
    }
    t += step_ticks;
  }
  return times;
}

}  // namespace erasmus::attest
