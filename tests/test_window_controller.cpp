// Tests for the AIMD dispatch-window controller (attest/window.h): fixed
// mode, slow-start and congestion-avoidance growth, multiplicative
// backoff with floor/ceiling clamping, recovery-epoch loss guarding (one
// cut per dispatch wave, however correlated the timeouts), the per-round
// min/max trackers the scenario metric tables report, and the WindowSpec
// that sizes all of it from the fleet.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "attest/window.h"

namespace erasmus::attest {
namespace {

// A 64-device directory: the adaptive window starts at kInitialWindow (16)
// and is capped at 64; loss cuts by kLossCut (0.7), congestion by
// kCongestionCut (0.5), both clamped at kWindowFloor (4).
WindowController adaptive_controller() {
  return WindowController({WindowSpec::Mode::kAdaptive}, 64);
}

TEST(WindowController, FixedModeNeverMoves) {
  WindowController ctl({WindowSpec::Mode::kFixed, 16}, 1000);
  EXPECT_EQ(ctl.window(), 16u);
  EXPECT_FALSE(ctl.adaptive());
  for (int i = 0; i < 100; ++i) ctl.on_response();
  EXPECT_EQ(ctl.window(), 16u);
  EXPECT_FALSE(ctl.on_loss(ctl.on_send())) << "fixed windows never back off";
  EXPECT_FALSE(ctl.on_congestion());
  EXPECT_EQ(ctl.window(), 16u);
  EXPECT_EQ(ctl.round_min(), 16u);
  EXPECT_EQ(ctl.round_max(), 16u);
}

TEST(WindowController, SpecSizesTheWindowFromTheFleet) {
  // kFleet: one slot per device, never zero.
  EXPECT_EQ(WindowController({WindowSpec::Mode::kFleet}, 500).window(), 500u);
  EXPECT_EQ(WindowController({WindowSpec::Mode::kFleet}, 0).window(), 1u);
  EXPECT_FALSE(WindowController({WindowSpec::Mode::kFleet}, 500).adaptive());
  // The default spec is the fixed 64-slot window, whatever the fleet.
  EXPECT_EQ(WindowController(WindowSpec{}, 5).window(), 64u);
  // Adaptive: starts at kInitialWindow, capped at max(fleet, floor).
  EXPECT_EQ(WindowController({WindowSpec::Mode::kAdaptive}, 500).window(),
            kInitialWindow);
  WindowController tiny({WindowSpec::Mode::kAdaptive}, 2);
  EXPECT_TRUE(tiny.adaptive());
  EXPECT_EQ(tiny.window(), kWindowFloor) << "ceiling never below the floor";
  for (int i = 0; i < 10; ++i) tiny.on_response();
  EXPECT_EQ(tiny.window(), kWindowFloor);
}

TEST(WindowController, ParseAcceptsTheKnobGrammarOnly) {
  EXPECT_EQ(WindowSpec::parse("fleet").mode, WindowSpec::Mode::kFleet);
  EXPECT_EQ(WindowSpec::parse("adaptive").mode, WindowSpec::Mode::kAdaptive);
  const WindowSpec fixed = WindowSpec::parse("17");
  EXPECT_EQ(fixed.mode, WindowSpec::Mode::kFixed);
  EXPECT_EQ(fixed.fixed, 17u);
  for (const char* bad : {"", "0", "-5", "+5", " 5", "5x", "banana",
                          "2147483649", "99999999999999999999999"}) {
    EXPECT_THROW(WindowSpec::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(WindowController, SlowStartGrowsPerResponseUntilCeiling) {
  WindowController ctl = adaptive_controller();
  EXPECT_EQ(ctl.window(), 16u);
  // Below ssthresh (= ceiling before any loss) every response adds one.
  ctl.on_response();
  EXPECT_EQ(ctl.window(), 17u);
  for (int i = 0; i < 200; ++i) ctl.on_response();
  EXPECT_EQ(ctl.window(), 64u) << "growth clamps at the ceiling";
}

TEST(WindowController, LossCutsAndEntersCongestionAvoidance) {
  WindowController ctl = adaptive_controller();
  for (int i = 0; i < 24; ++i) ctl.on_response();  // slow start to 40
  ASSERT_EQ(ctl.window(), 40u);

  EXPECT_TRUE(ctl.on_loss(ctl.on_send()));
  EXPECT_EQ(ctl.window(), 28u) << "a loss cuts by kLossCut, not half";

  // Past the (lowered) threshold, growth is additive: one full window of
  // responses buys one slot.
  for (size_t i = 0; i < 27; ++i) {
    ctl.on_response();
    EXPECT_EQ(ctl.window(), 28u) << "additive step needs a full window";
  }
  ctl.on_response();
  EXPECT_EQ(ctl.window(), 29u);
}

TEST(WindowController, BackoffClampsAtFloor) {
  WindowController ctl = adaptive_controller();
  ASSERT_EQ(ctl.window(), 16u);
  EXPECT_TRUE(ctl.on_loss(ctl.on_send()));  // 16 -> 11
  EXPECT_EQ(ctl.window(), 11u);
  EXPECT_TRUE(ctl.on_loss(ctl.on_send()));  // 11 -> 7
  EXPECT_EQ(ctl.window(), 7u);
  EXPECT_TRUE(ctl.on_loss(ctl.on_send()));  // 7 -> 4 (floor)
  EXPECT_EQ(ctl.window(), 4u);
  EXPECT_TRUE(ctl.on_loss(ctl.on_send()));
  EXPECT_EQ(ctl.window(), 4u) << "floor must hold";
}

TEST(WindowController, CorrelatedTimeoutWaveIsOneCut) {
  WindowController ctl = adaptive_controller();
  for (int i = 0; i < 48; ++i) ctl.on_response();  // slow start to 64
  ASSERT_EQ(ctl.window(), 64u);

  // A whole window's worth of attempts goes out, then the flood carrying
  // them is lost: 64 correlated timeouts. Only the first may cut -- the
  // rest belong to the same recovery epoch.
  std::vector<uint64_t> wave;
  for (int i = 0; i < 64; ++i) wave.push_back(ctl.on_send());
  EXPECT_TRUE(ctl.on_loss(wave[0]));
  EXPECT_EQ(ctl.window(), 44u);
  for (size_t i = 1; i < wave.size(); ++i) {
    EXPECT_FALSE(ctl.on_loss(wave[i])) << "wave timeout " << i
                                       << " double-charged";
  }
  EXPECT_EQ(ctl.window(), 44u);

  // An attempt dispatched AFTER the cut is fresh evidence: its timeout
  // cuts again.
  const uint64_t retry = ctl.on_send();
  EXPECT_TRUE(ctl.on_loss(retry));
  EXPECT_EQ(ctl.window(), 30u);
}

TEST(WindowController, CongestionBacksOffRateLimited) {
  WindowController ctl = adaptive_controller();
  for (int i = 0; i < 16; ++i) ctl.on_response();
  ASSERT_EQ(ctl.window(), 32u);
  EXPECT_TRUE(ctl.on_congestion());
  EXPECT_EQ(ctl.window(), 16u) << "congestion cuts by kCongestionCut";
  EXPECT_FALSE(ctl.on_congestion())
      << "saturation repeats within one window are one event";
  // After a window's worth of traffic the limiter re-opens.
  for (int i = 0; i < 16; ++i) ctl.on_response();
  EXPECT_TRUE(ctl.on_congestion());
  EXPECT_LT(ctl.window(), 16u);
}

TEST(WindowController, RoundTrackersFollowTrajectory) {
  WindowController ctl = adaptive_controller();
  for (int i = 0; i < 16; ++i) ctl.on_response();  // 16 -> 32
  EXPECT_TRUE(ctl.on_loss(ctl.on_send()));         // -> 22
  EXPECT_TRUE(ctl.on_loss(ctl.on_send()));         // -> 15
  EXPECT_EQ(ctl.round_min(), 15u);
  EXPECT_EQ(ctl.round_max(), 32u);

  // A new round starts its trackers from the carried-over window.
  ctl.begin_round();
  EXPECT_EQ(ctl.round_min(), 15u);
  EXPECT_EQ(ctl.round_max(), 15u);
  for (int i = 0; i < 100; ++i) ctl.on_response();
  EXPECT_EQ(ctl.round_max(), ctl.window());
}

TEST(WindowController, NextRoundSlowStartsToHalfTheLastRoundsPeak) {
  // The per-round threshold memory: a window crushed late in a round
  // regrows exponentially next round up to half the capacity it reached.
  WindowController ctl = adaptive_controller();
  for (int i = 0; i < 48; ++i) ctl.on_response();  // 16 -> 64
  for (int i = 0; i < 4; ++i) ctl.on_loss(ctl.on_send());
  ASSERT_EQ(ctl.window(), 14u);  // 64 -> 44 -> 30 -> 21 -> 14
  ctl.begin_round();
  for (int i = 0; i < 18; ++i) ctl.on_response();
  EXPECT_EQ(ctl.window(), 32u) << "slow start up to round_max / 2";
  ctl.on_response();
  EXPECT_EQ(ctl.window(), 32u) << "then additive";
}

}  // namespace
}  // namespace erasmus::attest
