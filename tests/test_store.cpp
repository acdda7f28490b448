// Tests for the rolling measurement store (paper §3.2, Fig. 3).
#include <gtest/gtest.h>

#include "attest/measurement_store.h"

namespace erasmus::attest {
namespace {

using crypto::MacAlgo;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

crypto::Mac test_mac() { return crypto::Mac(MacAlgo::kHmacSha256, test_key()); }

Measurement make_m(uint64_t t) {
  return compute_measurement(test_mac(), bytes_of("mem"), t);
}

struct StoreFixture {
  hw::DeviceMemory mem;
  hw::RegionId region;
  MeasurementStore store;

  explicit StoreFixture(size_t slots)
      : region(mem.add_region("store",
                              slots * (1 + 8 + 32 + 32),
                              hw::policy::kMeasurementStore)),
        store(mem, region, MacAlgo::kHmacSha256) {}
};

TEST(Store, CapacityFromRegionSize) {
  StoreFixture f(12);  // Fig. 3 example: n = 12
  EXPECT_EQ(f.store.capacity(), 12u);
  EXPECT_EQ(f.store.record_size(), 1 + 8 + 32 + 32u);
}

TEST(Store, RejectsTooSmallRegion) {
  hw::DeviceMemory mem;
  const auto tiny = mem.add_region("tiny", 8, hw::policy::kMeasurementStore);
  EXPECT_THROW(MeasurementStore(mem, tiny, MacAlgo::kHmacSha256),
               std::invalid_argument);
}

TEST(Store, PutGetRoundTrip) {
  StoreFixture f(4);
  const Measurement m = make_m(10);
  f.store.put(2, m);
  const auto back = f.store.get(2);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(Store, EmptySlotsReadAsNullopt) {
  StoreFixture f(4);
  EXPECT_FALSE(f.store.get(0).has_value());
  EXPECT_FALSE(f.store.get(3).has_value());
}

TEST(Store, IndicesWrapModuloN) {
  StoreFixture f(4);
  f.store.put(0, make_m(0));
  f.store.put(4, make_m(100));  // wraps onto slot 0
  const auto back = f.store.get(0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->timestamp, 100u);
}

TEST(Store, LatestReturnsNewestFirst) {
  StoreFixture f(8);
  for (uint64_t i = 0; i < 5; ++i) f.store.put(i, make_m(i * 10));
  const auto latest = f.store.latest(4, 3);
  ASSERT_EQ(latest.size(), 3u);
  EXPECT_EQ(latest[0].timestamp, 40u);
  EXPECT_EQ(latest[1].timestamp, 30u);
  EXPECT_EQ(latest[2].timestamp, 20u);
}

TEST(Store, LatestClampsKToCapacity) {
  // Fig. 2: "if k > n: k = n".
  StoreFixture f(4);
  for (uint64_t i = 0; i < 4; ++i) f.store.put(i, make_m(i));
  EXPECT_EQ(f.store.latest(3, 100).size(), 4u);
}

TEST(Store, LatestStopsAtDeviceStart) {
  StoreFixture f(8);
  f.store.put(0, make_m(0));
  f.store.put(1, make_m(10));
  // Only 2 measurements ever taken; asking for 5 returns 2.
  EXPECT_EQ(f.store.latest(1, 5).size(), 2u);
}

TEST(Store, LatestSkipsErasedSlots) {
  StoreFixture f(8);
  for (uint64_t i = 0; i < 4; ++i) f.store.put(i, make_m(i));
  f.store.tamper_erase(2);
  const auto latest = f.store.latest(3, 4);
  ASSERT_EQ(latest.size(), 3u) << "erased record is absent, not garbage";
}

TEST(Store, SlotForTimeImplementsPaperFormula) {
  // i = floor(t / T_M) mod n.
  StoreFixture f(12);
  EXPECT_EQ(f.store.slot_for_time(0, 60), 0u);
  EXPECT_EQ(f.store.slot_for_time(59, 60), 0u);
  EXPECT_EQ(f.store.slot_for_time(60, 60), 1u);
  EXPECT_EQ(f.store.slot_for_time(60 * 12, 60), 0u);     // wraps
  EXPECT_EQ(f.store.slot_for_time(60 * 15, 60), 3u);
  EXPECT_THROW(f.store.slot_for_time(1, 0), std::invalid_argument);
}

TEST(Store, WrapAroundOverwritesOldest) {
  StoreFixture f(3);
  for (uint64_t i = 0; i < 5; ++i) f.store.put(i, make_m(i * 10));
  // Slots now hold indices 3, 4 (wrapped) and 2.
  EXPECT_EQ(f.store.get(3)->timestamp, 30u);
  EXPECT_EQ(f.store.get(4)->timestamp, 40u);
  EXPECT_EQ(f.store.get(2)->timestamp, 20u);
  // Index 0's record (slot 0) was overwritten by index 3.
  EXPECT_EQ(f.store.get(0)->timestamp, 30u);
}

TEST(Store, BytesForCollectionCostModel) {
  StoreFixture f(8);
  EXPECT_EQ(f.store.bytes_for(3), 3 * f.store.record_size());
  EXPECT_EQ(f.store.bytes_for(100), 8 * f.store.record_size());
}

TEST(Store, TamperCorruptBreaksMacVerification) {
  StoreFixture f(4);
  f.store.put(1, make_m(10));
  f.store.tamper_corrupt(1, f.store.record_size() - 1, 0x80);
  const auto m = f.store.get(1);
  ASSERT_TRUE(m.has_value()) << "record still parses";
  EXPECT_FALSE(verify_measurement(test_mac(), *m))
      << "but its MAC no longer verifies";
}

TEST(Store, TamperSwapReordersRecords) {
  StoreFixture f(4);
  f.store.put(1, make_m(10));
  f.store.put(2, make_m(20));
  f.store.tamper_swap(1, 2);
  EXPECT_EQ(f.store.get(1)->timestamp, 20u);
  EXPECT_EQ(f.store.get(2)->timestamp, 10u);
  // The records themselves still verify -- reordering is only visible to
  // the verifier through the schedule check.
  EXPECT_TRUE(verify_measurement(test_mac(), *f.store.get(1)));
}

TEST(Store, TamperOverwriteForgesUnverifiableRecord) {
  StoreFixture f(4);
  f.store.put(1, make_m(10));
  const Measurement forged = compute_measurement(
      crypto::Mac(MacAlgo::kHmacSha256, bytes_of("guessed key")),
      bytes_of("clean"), 10);
  f.store.tamper_overwrite(1, forged);
  const auto m = f.store.get(1);
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(verify_measurement(test_mac(), *m));
}

TEST(Store, TamperCorruptOutsideRecordThrows) {
  StoreFixture f(4);
  EXPECT_THROW(f.store.tamper_corrupt(0, f.store.record_size(), 1),
               std::out_of_range);
}

TEST(Store, RecordSizeMismatchRejected) {
  StoreFixture f(4);
  Measurement bad = make_m(1);
  bad.digest.resize(bad.digest.size() - 1);
  EXPECT_THROW(f.store.put(0, bad), std::invalid_argument);
}

TEST(Store, RecordSizeForMatchesTheLayout) {
  EXPECT_EQ(MeasurementStore::record_size_for(MacAlgo::kHmacSha1),
            1 + 8 + 20 + 20u);
  EXPECT_EQ(MeasurementStore::record_size_for(MacAlgo::kHmacSha256),
            1 + 8 + 32 + 32u);
  EXPECT_EQ(MeasurementStore::record_size_for(MacAlgo::kKeyedBlake2s),
            1 + 8 + 32 + 32u);
}

TEST(Store, Sha1RecordsAreSmaller) {
  hw::DeviceMemory mem;
  const auto region =
      mem.add_region("store", 1024, hw::policy::kMeasurementStore);
  MeasurementStore s1(mem, region, MacAlgo::kHmacSha1);
  MeasurementStore s256(mem, region, MacAlgo::kHmacSha256);
  EXPECT_LT(s1.record_size(), s256.record_size());
  EXPECT_GT(s1.capacity(), s256.capacity());
}

// Property sweep: for every capacity, writing 2n sequential indices leaves
// exactly the last n readable with correct timestamps.
class StoreWrapProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(StoreWrapProperty, KeepsExactlyLastN) {
  const size_t n = GetParam();
  StoreFixture f(n);
  const uint64_t total = 2 * n;
  for (uint64_t i = 0; i < total; ++i) f.store.put(i, make_m(i));
  const auto latest = f.store.latest(total - 1, n);
  ASSERT_EQ(latest.size(), n);
  for (size_t j = 0; j < n; ++j) {
    EXPECT_EQ(latest[j].timestamp, total - 1 - j);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, StoreWrapProperty,
                         ::testing::Values(1, 2, 3, 7, 12, 32));

}  // namespace
}  // namespace erasmus::attest
