// Tests for the CSPRNG behind irregular scheduling: HMAC-DRBG (SP 800-90A).
#include <gtest/gtest.h>

#include <set>

#include "crypto/hmac_drbg.h"

namespace erasmus::crypto {
namespace {

TEST(HmacDrbg, DeterministicForSameSeed) {
  HmacDrbg a(bytes_of("seed"), bytes_of("pers"));
  HmacDrbg b(bytes_of("seed"), bytes_of("pers"));
  EXPECT_EQ(a.generate(64), b.generate(64));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(HmacDrbg, DifferentSeedsDiverge) {
  HmacDrbg a(bytes_of("seed-1"));
  HmacDrbg b(bytes_of("seed-2"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, PersonalizationSeparatesStreams) {
  HmacDrbg a(bytes_of("seed"), bytes_of("schedule"));
  HmacDrbg b(bytes_of("seed"), bytes_of("other-use"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, OutputAdvances) {
  HmacDrbg drbg(bytes_of("seed"));
  EXPECT_NE(drbg.generate(32), drbg.generate(32));
}

TEST(HmacDrbg, ReseedChangesFuture) {
  HmacDrbg a(bytes_of("seed"));
  HmacDrbg b(bytes_of("seed"));
  (void)a.generate(16);
  (void)b.generate(16);
  b.reseed(bytes_of("fresh entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, NextBelowRespectsBound) {
  HmacDrbg drbg(bytes_of("seed"));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(drbg.next_below(17), 17u);
  }
  EXPECT_THROW(drbg.next_below(0), std::invalid_argument);
}

TEST(HmacDrbg, NextBelowCoversRange) {
  HmacDrbg drbg(bytes_of("seed"));
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(drbg.next_below(8));
  EXPECT_EQ(seen.size(), 8u) << "all residues should appear in 200 draws";
}

TEST(HmacDrbg, LargeRequestSpansMultipleHmacBlocks) {
  HmacDrbg drbg(bytes_of("seed"));
  const Bytes out = drbg.generate(1000);  // > 31 SHA-256 outputs
  EXPECT_EQ(out.size(), 1000u);
  // Should not be trivially repeating in 32-byte strides.
  EXPECT_NE(Bytes(out.begin(), out.begin() + 32),
            Bytes(out.begin() + 32, out.begin() + 64));
}

// Distribution smoke test, parameterised over bounds: mean of uniform draws
// in [0, bound) should be near bound/2.
class RngDistribution : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngDistribution, MeanNearHalfBound) {
  const uint64_t bound = GetParam();
  HmacDrbg drbg(bytes_of("distribution-seed"));
  const int kDraws = 4000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(drbg.next_below(bound));
  }
  const double mean = sum / kDraws;
  const double expected = static_cast<double>(bound - 1) / 2.0;
  EXPECT_NEAR(mean, expected, expected * 0.10 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngDistribution,
                         ::testing::Values(2, 10, 100, 3600, 1u << 20));

}  // namespace
}  // namespace erasmus::crypto
