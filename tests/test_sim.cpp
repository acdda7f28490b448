// Tests for the simulation substrate: virtual time, the event queue, the
// deterministic RNG, and the device cost profiles (incl. the paper-anchor
// calibration points).
#include <gtest/gtest.h>

#include <vector>

#include "sim/device_profile.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace erasmus::sim {
namespace {

TEST(Time, DurationFactoriesAndConversions) {
  EXPECT_EQ(Duration::seconds(2).ns(), 2'000'000'000ull);
  EXPECT_EQ(Duration::millis(3).ns(), 3'000'000ull);
  EXPECT_EQ(Duration::micros(4).ns(), 4'000ull);
  EXPECT_EQ(Duration::minutes(1).ns(), Duration::seconds(60).ns());
  EXPECT_EQ(Duration::hours(1).ns(), Duration::minutes(60).ns());
  EXPECT_DOUBLE_EQ(Duration::millis(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::micros(1500).to_millis(), 1.5);
}

TEST(Time, Arithmetic) {
  const Time t = Time::zero() + Duration::seconds(5);
  EXPECT_EQ((t + Duration::seconds(3)).ns(), Duration::seconds(8).ns());
  EXPECT_EQ((t - Time::zero()).ns(), Duration::seconds(5).ns());
  EXPECT_EQ(Duration::seconds(10) / Duration::seconds(3), 3u);
  EXPECT_EQ((Duration::seconds(3) * 4).ns(), Duration::seconds(12).ns());
  EXPECT_LT(Time::zero(), t);
}

TEST(Time, ToStringPicksUnits) {
  EXPECT_EQ(to_string(Duration::seconds(2)), "2.000 s");
  EXPECT_EQ(to_string(Duration::millis(285) + Duration::micros(600)),
            "285.600 ms");
  EXPECT_EQ(to_string(Duration::micros(15)), "15.000 us");
  EXPECT_EQ(to_string(Duration::nanos(7)), "7 ns");
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(Time(30), [&] { order.push_back(3); });
  q.schedule_at(Time(10), [&] { order.push_back(1); });
  q.schedule_at(Time(20), [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Time(30));
}

TEST(EventQueue, StableFifoWithinTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(Time(100), [&, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule_at(Time(10), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id)) << "double cancel reports failure";
  q.run();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, RunUntilStopsAtLimit) {
  EventQueue q;
  int count = 0;
  q.schedule_at(Time(10), [&] { ++count; });
  q.schedule_at(Time(20), [&] { ++count; });
  q.schedule_at(Time(30), [&] { ++count; });
  EXPECT_EQ(q.run_until(Time(20)), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), Time(20));
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  q.run_until(Time(500));
  EXPECT_EQ(q.now(), Time(500));
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_after(Duration(10), recurse);
  };
  q.schedule_at(Time(0), recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), Time(40));
}

// --- Cancellation bookkeeping regressions ------------------------------------
// run_until() once popped a beyond-limit event and pushed it back; these
// tests pin the peek-based rewrite: cancel/run interleavings keep pending()
// exact and never resurrect or drop events.

TEST(EventQueue, CancelThenRunUntilKeepsPendingExact) {
  EventQueue q;
  int ran = 0;
  q.schedule_at(Time(10), [&] { ++ran; });
  const EventId mid = q.schedule_at(Time(20), [&] { ++ran; });
  q.schedule_at(Time(30), [&] { ++ran; });
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_TRUE(q.cancel(mid));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.run_until(Time(25)), 1u);  // only the t=10 event runs
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelledEventBeyondLimitNeverRuns) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule_at(Time(100), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  // The cancelled entry sits beyond the limit; run_until must not count it
  // as pending work nor execute it later.
  EXPECT_EQ(q.run_until(Time(50)), 0u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.run(), 0u);
  EXPECT_FALSE(ran);
}

TEST(EventQueue, DeferredEventSurvivesRunUntilAndCancelStillWorks) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule_at(Time(100), [&] { ran = true; });
  // run_until peeks at the t=100 event without consuming it...
  EXPECT_EQ(q.run_until(Time(50)), 0u);
  EXPECT_EQ(q.pending(), 1u);
  // ...so it can still be cancelled afterwards.
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.run(), 0u);
  EXPECT_FALSE(ran);
}

TEST(EventQueue, DeferredEventKeepsFifoOrderWithinTimestamp) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(Time(100), [&] { order.push_back(0); });
  q.schedule_at(Time(100), [&] { order.push_back(1); });
  // Stopping short must not perturb the FIFO tie-break at t=100.
  q.run_until(Time(50));
  q.schedule_at(Time(100), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, HandlerCancellingPendingEvent) {
  EventQueue q;
  bool victim_ran = false;
  EventId victim = q.schedule_at(Time(20), [&] { victim_ran = true; });
  q.schedule_at(Time(10), [&] { EXPECT_TRUE(q.cancel(victim)); });
  EXPECT_EQ(q.run(), 1u);
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelInterleavedWithRunUntilRounds) {
  // A schedule/cancel/advance churn loop: pending() must stay exact the
  // whole way (regression for cancelled-set cleanup on pop).
  EventQueue q;
  size_t executed = 0;
  std::vector<EventId> batch;
  for (int round = 1; round <= 5; ++round) {
    const Time base = Time(static_cast<uint64_t>(round) * 100);
    batch.clear();
    for (int i = 0; i < 4; ++i) {
      batch.push_back(
          q.schedule_at(base + Duration(static_cast<uint64_t>(i)),
                        [&] { ++executed; }));
    }
    // Cancel half of them, one before and one after the barrier sweep.
    EXPECT_TRUE(q.cancel(batch[0]));
    EXPECT_EQ(q.pending(), 3u);
    q.run_until(base + Duration(1));  // runs batch[1] only
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_TRUE(q.cancel(batch[3]));
    EXPECT_EQ(q.pending(), 1u);
    q.run_until(base + Duration(10));  // runs batch[2]
    EXPECT_EQ(q.pending(), 0u);
  }
  EXPECT_EQ(executed, 10u);
}

// --- Slot reuse --------------------------------------------------------------
// An event's handler slot is reused once the event ran or was cancelled.
// Its id carries the slot's generation, so a stale id names no event.

TEST(EventQueue, StaleIdLeavesTheReusedSlotsEventAlone) {
  EventQueue q;
  bool old_ran = false;
  bool new_ran = false;
  const EventId old_id = q.schedule_at(Time(10), [&] { old_ran = true; });
  EXPECT_TRUE(q.cancel(old_id));
  const EventId new_id = q.schedule_at(Time(10), [&] { new_ran = true; });
  ASSERT_EQ(static_cast<uint32_t>(new_id), static_cast<uint32_t>(old_id))
      << "the freed slot is reused";
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(q.pending(old_id));
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_TRUE(q.pending(new_id));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_FALSE(old_ran);
  EXPECT_TRUE(new_ran);
}

TEST(EventQueue, CancellingAnIdThatRanReturnsFalse) {
  EventQueue q;
  int ran = 0;
  EventId self = 0;
  self = q.schedule_at(Time(10), [&] {
    ++ran;
    EXPECT_FALSE(q.cancel(self)) << "a running event is no longer pending";
  });
  EXPECT_EQ(q.run(), 1u);
  EXPECT_FALSE(q.pending(self));
  EXPECT_FALSE(q.cancel(self));
  // The slot now holds a later event, which the stale id cannot touch.
  q.schedule_at(Time(20), [&] { ++ran; });
  EXPECT_FALSE(q.cancel(self));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(q.cancel(0)) << "no event ever has id 0";
}

TEST(EventQueue, FifoWithinATimestampAcrossSlotReuse) {
  // Freed slots come back last-freed first; the run order within a
  // timestamp must stay the scheduling order regardless.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 6; ++i) doomed.push_back(q.schedule_at(Time(5), [] {}));
  for (const EventId id : doomed) EXPECT_TRUE(q.cancel(id));
  for (int i = 0; i < 4; ++i) {
    q.schedule_at(Time(100), [&order, i] { order.push_back(i); });
  }
  // Events that ran free their slots too: these schedule into them.
  for (int i = 4; i < 8; ++i) {
    q.schedule_at(Time(50), [&q, &order, i] {
      q.schedule_at(Time(100), [&order, i] { order.push_back(i); });
    });
  }
  for (int i = 8; i < 12; ++i) {
    q.schedule_at(Time(100), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.pending(), 12u);
  EXPECT_EQ(q.run(), 16u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7}));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(ScopedEvents, DestructionCancelsWhatIsStillPending) {
  EventQueue q;
  int ran = 0;
  {
    ScopedEvents events(q);
    for (uint64_t i = 1; i <= 40; ++i) {
      events.schedule_after(Duration(i), [&ran] { ++ran; });
    }
    EXPECT_EQ(q.run_until(Time(20)), 20u);
    // More than the list holds: stale ids get pruned along the way.
    for (uint64_t i = 1; i <= 40; ++i) {
      events.schedule_after(Duration(i), [&ran] { ++ran; });
    }
    EXPECT_EQ(q.pending(), 60u);
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.run(), 0u);
  EXPECT_EQ(ran, 20);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.advance_to(Time(100));
  EXPECT_THROW(q.schedule_at(Time(50), [] {}), std::invalid_argument);
  EXPECT_THROW(q.advance_to(Time(50)), std::invalid_argument);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng a2(123);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(99);
  double sum = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.2);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(1);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --- Device profiles ---------------------------------------------------------

TEST(DeviceProfile, Imx6Blake2sMatchesTable2Anchor) {
  // Table 2: computing a 10 MB measurement with keyed BLAKE2s takes
  // 285.6 ms on the 1 GHz i.MX6.
  const auto p = DeviceProfile::imx6_1ghz();
  const Duration t =
      p.mac_time(crypto::MacAlgo::kKeyedBlake2s, 10ull * 1024 * 1024);
  EXPECT_NEAR(t.to_millis(), 285.6, 3.0);
}

TEST(DeviceProfile, Msp430Sha256MatchesFig6Anchor) {
  // Fig. 6: ~7 s for 10 KB with HMAC-SHA256 at 8 MHz.
  const auto p = DeviceProfile::msp430_8mhz();
  const Duration t = p.mac_time(crypto::MacAlgo::kHmacSha256, 10 * 1024);
  EXPECT_NEAR(t.to_seconds(), 7.0, 0.5);
}

TEST(DeviceProfile, RuntimeIsLinearInMemorySize) {
  const auto p = DeviceProfile::msp430_8mhz();
  const auto at = [&](uint64_t kb) {
    return p.mac_time(crypto::MacAlgo::kHmacSha256, kb * 1024).to_seconds();
  };
  const double t2 = at(2), t4 = at(4), t8 = at(8);
  // Slope constant within 5% (setup overhead shrinks relative share).
  EXPECT_NEAR((t4 - t2) / 2.0, (t8 - t4) / 4.0, 0.05 * (t8 - t4) / 4.0);
}

TEST(DeviceProfile, Blake2sFasterThanHmacSha256OnBothTargets) {
  for (const auto& p :
       {DeviceProfile::msp430_8mhz(), DeviceProfile::imx6_1ghz()}) {
    EXPECT_LT(p.mac_time(crypto::MacAlgo::kKeyedBlake2s, 1 << 20).ns(),
              p.mac_time(crypto::MacAlgo::kHmacSha256, 1 << 20).ns())
        << p.name;
  }
}

TEST(DeviceProfile, OndemandAddsRequestAuthOverhead) {
  const auto p = DeviceProfile::imx6_1ghz();
  const uint64_t len = 1 << 20;
  const Duration erasmus = p.measurement_time(crypto::MacAlgo::kHmacSha256, len);
  const Duration ondemand = p.ondemand_time(crypto::MacAlgo::kHmacSha256, len);
  EXPECT_GT(ondemand.ns(), erasmus.ns() - p.cycles_to_time(p.timer_isr_cycles).ns());
  // Table 2: request verification is 0.005 ms.
  EXPECT_NEAR(p.request_auth_time().to_millis(), 0.005, 1e-6);
}

TEST(DeviceProfile, PacketTimesMatchTable2) {
  const auto p = DeviceProfile::imx6_1ghz();
  EXPECT_NEAR(p.packet_construct.to_millis(), 0.003, 1e-9);
  EXPECT_NEAR(p.packet_send.to_millis(), 0.012, 1e-9);
}

// Parameterised sweep: measurement_time strictly increases with memory for
// every (profile, algorithm) pair.
struct ProfileAlgoCase {
  bool msp430;
  crypto::MacAlgo algo;
};

class ProfileMonotonicity : public ::testing::TestWithParam<ProfileAlgoCase> {};

TEST_P(ProfileMonotonicity, StrictlyIncreasingInMemory) {
  const auto p = GetParam().msp430 ? DeviceProfile::msp430_8mhz()
                                   : DeviceProfile::imx6_1ghz();
  uint64_t prev = 0;
  for (uint64_t kb = 1; kb <= 64; kb *= 2) {
    const uint64_t t = p.measurement_time(GetParam().algo, kb * 1024).ns();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ProfileMonotonicity,
    ::testing::Values(ProfileAlgoCase{true, crypto::MacAlgo::kHmacSha1},
                      ProfileAlgoCase{true, crypto::MacAlgo::kHmacSha256},
                      ProfileAlgoCase{true, crypto::MacAlgo::kKeyedBlake2s},
                      ProfileAlgoCase{false, crypto::MacAlgo::kHmacSha1},
                      ProfileAlgoCase{false, crypto::MacAlgo::kHmacSha256},
                      ProfileAlgoCase{false, crypto::MacAlgo::kKeyedBlake2s}));

}  // namespace
}  // namespace erasmus::sim
