// Tests for measurement scheduling: regular, irregular (CSPRNG, §3.5) and
// lenient (§5), plus the verifier-side schedule replay.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "attest/schedule.h"

namespace erasmus::attest {
namespace {

using sim::Duration;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

TEST(RegularScheduler, FixedInterval) {
  RegularScheduler s(Duration::minutes(10));
  EXPECT_EQ(s.next_interval(0).ns(), Duration::minutes(10).ns());
  EXPECT_EQ(s.next_interval(999).ns(), Duration::minutes(10).ns());
  EXPECT_EQ(s.nominal_period().ns(), Duration::minutes(10).ns());
  EXPECT_TRUE(s.predictable_without_key());
}

TEST(RegularScheduler, RejectsZeroPeriod) {
  EXPECT_THROW(RegularScheduler(Duration(0)), std::invalid_argument);
}

TEST(IrregularScheduler, IntervalsWithinBounds) {
  IrregularScheduler s(test_key(), Duration::minutes(5),
                       Duration::minutes(15));
  for (uint64_t t = 0; t < 500; t += 7) {
    const Duration iv = s.next_interval(t);
    EXPECT_GE(iv.ns(), Duration::minutes(5).ns()) << "t=" << t;
    EXPECT_LT(iv.ns(), Duration::minutes(15).ns()) << "t=" << t;
  }
}

TEST(IrregularScheduler, DeterministicInKeyAndTime) {
  IrregularScheduler a(test_key(), Duration::minutes(5),
                       Duration::minutes(15));
  IrregularScheduler b(test_key(), Duration::minutes(5),
                       Duration::minutes(15));
  for (uint64_t t : {0ull, 1ull, 12345ull}) {
    EXPECT_EQ(a.next_interval(t).ns(), b.next_interval(t).ns());
  }
}

TEST(IrregularScheduler, DifferentKeysProduceDifferentSchedules) {
  IrregularScheduler a(test_key(), Duration::minutes(5),
                       Duration::minutes(15));
  IrregularScheduler b(bytes_of("another-device-key-0123"),
                       Duration::minutes(5), Duration::minutes(15));
  size_t differing = 0;
  for (uint64_t t = 0; t < 50; ++t) {
    if (a.next_interval(t).ns() != b.next_interval(t).ns()) ++differing;
  }
  EXPECT_GT(differing, 40u);
}

TEST(IrregularScheduler, IntervalsActuallyVary) {
  IrregularScheduler s(test_key(), Duration::minutes(5),
                       Duration::minutes(60));
  std::set<uint64_t> seen;
  for (uint64_t t = 0; t < 64; ++t) seen.insert(s.next_interval(t).ns());
  EXPECT_GT(seen.size(), 32u) << "a CSPRNG schedule must not look regular";
}

TEST(IrregularScheduler, NominalPeriodIsMidpoint) {
  IrregularScheduler s(test_key(), Duration::minutes(10),
                       Duration::minutes(20));
  EXPECT_EQ(s.nominal_period().ns(), Duration::minutes(15).ns());
  EXPECT_FALSE(s.predictable_without_key());
}

TEST(IrregularScheduler, ValidatesParameters) {
  EXPECT_THROW(IrregularScheduler(Bytes{}, Duration::minutes(5),
                                  Duration::minutes(15)),
               std::invalid_argument);
  EXPECT_THROW(IrregularScheduler(test_key(), Duration(0),
                                  Duration::minutes(15)),
               std::invalid_argument);
  EXPECT_THROW(IrregularScheduler(test_key(), Duration::minutes(15),
                                  Duration::minutes(15)),
               std::invalid_argument);
  // Closer than one tick: no whole tick to draw. The message names the
  // bounds and the tick.
  try {
    IrregularScheduler(test_key(), Duration::seconds(300),
                       Duration::millis(300500));
    ADD_FAILURE() << "bounds closer than one tick accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("300.000 s"), std::string::npos) << what;
    EXPECT_NE(what.find("300.500 s"), std::string::npos) << what;
    EXPECT_NE(what.find("1.000 s"), std::string::npos) << what;
  }
  // Exactly one tick apart is the narrowest valid schedule.
  const IrregularScheduler narrow(test_key(), Duration::seconds(300),
                                  Duration::seconds(301));
  EXPECT_EQ(narrow.next_interval(0).ns(), Duration::seconds(300).ns());
}

TEST(LenientScheduler, DelegatesToBase) {
  LenientScheduler s(std::make_unique<RegularScheduler>(Duration::minutes(10)),
                     2.0);
  EXPECT_EQ(s.next_interval(0).ns(), Duration::minutes(10).ns());
  EXPECT_EQ(s.nominal_period().ns(), Duration::minutes(10).ns());
  EXPECT_TRUE(s.predictable_without_key());
  EXPECT_EQ(s.window_factor(), 2.0);
}

TEST(LenientScheduler, WindowSlackIsWMinusOnePeriods) {
  LenientScheduler s(std::make_unique<RegularScheduler>(Duration::minutes(10)),
                     1.5);
  EXPECT_EQ(s.window_slack().ns(), Duration::minutes(5).ns());
  LenientScheduler strict(
      std::make_unique<RegularScheduler>(Duration::minutes(10)), 1.0);
  EXPECT_EQ(strict.window_slack().ns(), 0u);
}

TEST(LenientScheduler, ValidatesParameters) {
  EXPECT_THROW(LenientScheduler(nullptr, 2.0), std::invalid_argument);
  EXPECT_THROW(
      LenientScheduler(
          std::make_unique<RegularScheduler>(Duration::minutes(10)), 0.5),
      std::invalid_argument);
}

TEST(ExpectedSchedule, RegularEnumeratesMultiples) {
  RegularScheduler s(Duration::seconds(60));
  const auto times = expected_schedule(s, 60, 300, Duration::seconds(1));
  EXPECT_EQ(times, (std::vector<uint64_t>{60, 120, 180, 240, 300}));
}

TEST(ExpectedSchedule, IrregularReplayMatchesProverSide) {
  // The verifier owns K and must reproduce the prover's exact sequence.
  IrregularScheduler sched(test_key(), Duration::seconds(30),
                           Duration::seconds(90));
  const auto times =
      expected_schedule(sched, 100, 100 + 3600, Duration::seconds(1));
  ASSERT_GT(times.size(), 2u);
  // Re-derive manually.
  uint64_t t = 100;
  for (uint64_t expected : times) {
    EXPECT_EQ(expected, t);
    t += sched.next_interval(t) / Duration::seconds(1);
  }
  // Gaps honour the bounds.
  for (size_t i = 1; i < times.size(); ++i) {
    const uint64_t gap = times[i] - times[i - 1];
    EXPECT_GE(gap, 30u);
    EXPECT_LT(gap, 90u);
  }
}

TEST(ExpectedSchedule, EmptyWhenAnchorPastEnd) {
  RegularScheduler s(Duration::seconds(60));
  EXPECT_TRUE(expected_schedule(s, 500, 400, Duration::seconds(1)).empty());
}

// Property: the empirical mean interval of an irregular schedule converges
// to the midpoint of [L, U] (uniform mapping sanity).
class IrregularMeanProperty
    : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

TEST_P(IrregularMeanProperty, MeanNearMidpoint) {
  const auto [lo_min, hi_min] = GetParam();
  IrregularScheduler s(test_key(), Duration::minutes(lo_min),
                       Duration::minutes(hi_min));
  double sum = 0;
  const int kSamples = 2000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(s.next_interval(i).ns());
  }
  const double mean = sum / kSamples;
  const double mid =
      (static_cast<double>(Duration::minutes(lo_min).ns()) +
       static_cast<double>(Duration::minutes(hi_min).ns())) / 2.0;
  EXPECT_NEAR(mean, mid, mid * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, IrregularMeanProperty,
    ::testing::Values(std::make_pair(5ull, 15ull), std::make_pair(1ull, 2ull),
                      std::make_pair(10ull, 60ull)));

}  // namespace
}  // namespace erasmus::attest
