// Adversarial property tests: the §3.2/§3.4 security argument, tested by
// fuzzing. The claim under test: measurements live in UNPROTECTED storage,
// yet *any* tampering a key-less adversary can perform is detected at the
// next collection -- because forging requires K.
#include <gtest/gtest.h>

#include "attest/directory.h"
#include "attest/prover.h"
#include "sim/rng.h"

namespace erasmus::attest {
namespace {

using crypto::MacAlgo;
using sim::Duration;
using sim::Time;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

struct Rig {
  sim::EventQueue queue;
  hw::SmartPlusArch arch;
  Prover prover;
  DeviceRecord record;

  Rig()
      : arch(test_key(), 4096, 2048, 16 * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<RegularScheduler>(Duration::minutes(10)),
               ProverConfig{}),
        record([&] {
          DeviceRecord rec;
          rec.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, test_key());
          rec.set_golden(crypto::Hash::digest(
              crypto::HashAlgo::kSha256,
              arch.memory().view(arch.app_region(), true)));
          return rec;
        }()) {
    prover.start();
    const uint64_t t0 =
        prover.scheduler().next_interval(0) / Duration::seconds(1);
    record.scheduler = &prover.scheduler();
    record.schedule_t0 = t0;
    queue.run_until(Time::zero() + Duration::hours(1));
  }

  CollectionReport collect(size_t k) {
    const auto res =
        prover.handle_collect(CollectRequest{static_cast<uint32_t>(k)});
    return verify_collection(record, res.response, queue.now(), k);
  }
};

// Property: flipping ANY single byte of ANY stored record is detected.
// (Byte 0 is the validity flag -- flipping it erases the record, visible as
// a gap; any other byte breaks MAC verification or the schedule check.)
class StoreByteFlip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreByteFlip, AnySingleByteFlipDetected) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    Rig rig;
    const uint64_t slot =
        rig.prover.latest_index() - rng.next_below(6);  // any of the 6
    const size_t offset = static_cast<size_t>(rng.next_below(kRecordBytes));
    const uint8_t mask = static_cast<uint8_t>(1u << rng.next_below(8));
    rig.prover.store().tamper_corrupt(slot, offset, mask);

    const auto report = rig.collect(6);
    EXPECT_TRUE(report.tampering_detected)
        << "slot=" << slot << " offset=" << offset << " mask=" << int(mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreByteFlip, ::testing::Values(1, 2, 3, 4));

// Property: multi-byte random scribbles over the store are detected.
class StoreScribble : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreScribble, RandomScribbleDetected) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Rig rig;
    const size_t store_bytes = 16 * kRecordBytes;
    const size_t n_writes = 1 + rng.next_below(8);
    for (size_t w = 0; w < n_writes; ++w) {
      const size_t offset = static_cast<size_t>(
          rng.next_below(store_bytes - 4));
      Bytes junk(1 + rng.next_below(4));
      for (auto& b : junk) b = static_cast<uint8_t>(rng.next_u64());
      rig.prover.memory().write(rig.arch.store_region(), offset, junk,
                                /*privileged=*/false);
    }
    // The scribble could, with ~2^-8 probability per write, rewrite a byte
    // to its existing value; detect that and skip (no tampering happened).
    const auto res = rig.prover.handle_collect(CollectRequest{6});
    bool all_records_genuine =
        res.response.measurements.size() == 6;
    for (const auto& m : res.response.measurements) {
      all_records_genuine &= verify_measurement(
          crypto::Mac(MacAlgo::kHmacSha256, test_key()), m);
    }
    if (all_records_genuine) continue;

    const auto report =
        verify_collection(rig.record, res.response, rig.queue.now(), 6);
    EXPECT_TRUE(report.tampering_detected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreScribble, ::testing::Values(10, 20, 30));

TEST(Adversarial, ReplayedOldRecordIsOffSchedule) {
  // Malware copies yesterday's (healthy) record over today's (infected)
  // slot. The MAC verifies -- but the timestamp lands where the schedule
  // says no measurement happened, or duplicates an existing one.
  Rig rig;
  auto& store = rig.prover.store();
  const auto old_record = store.get(rig.prover.latest_index() - 3);
  ASSERT_TRUE(old_record.has_value());
  store.tamper_overwrite(rig.prover.latest_index(), *old_record);

  const auto report = rig.collect(6);
  EXPECT_TRUE(report.tampering_detected)
      << "duplicate timestamps / reordering must be flagged";
}

TEST(Adversarial, RecordFromAnotherDeviceRejected) {
  // Splicing in a record from a different device (different K) fails MAC.
  Rig rig;
  const Bytes other_key = bytes_of("a-different-device-key-01234567!");
  const Measurement foreign = compute_measurement(
      crypto::Mac(MacAlgo::kHmacSha256, other_key),
      bytes_of("healthy-looking"), 3600);
  rig.prover.store().tamper_overwrite(rig.prover.latest_index(), foreign);

  const auto report = rig.collect(6);
  EXPECT_TRUE(report.tampering_detected);
}

TEST(Adversarial, TimestampOnlyEditBreaksMac) {
  // The timestamp is inside the MAC: sliding a record to a different
  // schedule slot without K is impossible.
  Rig rig;
  auto& store = rig.prover.store();
  const uint64_t slot = rig.prover.latest_index();
  // Record layout: flag(1) | t(8) | digest | mac -- bump t's low byte.
  store.tamper_corrupt(slot, 1, 0x01);
  const auto report = rig.collect(6);
  EXPECT_TRUE(report.tampering_detected);
}

TEST(Adversarial, WholeStoreWipeLeavesNothingAuthentic) {
  Rig rig;
  for (uint64_t s = 0; s < rig.prover.store().capacity(); ++s) {
    rig.prover.store().tamper_erase(s);
  }
  const auto report = rig.collect(6);
  EXPECT_TRUE(report.tampering_detected);
  EXPECT_FALSE(report.freshness.has_value());
}

TEST(Adversarial, ForgeryNeedsTheKey_PositiveControl) {
  // Sanity check of the whole argument: WITH the key, a forged "healthy"
  // record at a scheduled timestamp IS accepted. This is why K's hardware
  // protection (SMART+/HYDRA) carries the entire scheme.
  Rig rig;
  const auto latest = rig.prover.store().get(rig.prover.latest_index());
  ASSERT_TRUE(latest.has_value());
  const Measurement forged_with_key = compute_measurement(
      crypto::Mac(MacAlgo::kHmacSha256, test_key()),
      rig.arch.memory().view(rig.arch.app_region(), true),
      latest->timestamp);
  rig.prover.store().tamper_overwrite(rig.prover.latest_index(),
                                      forged_with_key);
  const auto report = rig.collect(6);
  EXPECT_FALSE(report.tampering_detected)
      << "a key-holding adversary defeats the scheme by construction";
}

TEST(Adversarial, CollectionOfGarbageResponse) {
  // A compromised network peer answers the verifier with random bytes:
  // deserialization or verification must reject, never crash.
  Rig rig;
  sim::Rng rng(777);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_u64());
    const auto resp = CollectResponse::deserialize(junk);
    if (!resp) continue;
    const auto report =
        verify_collection(rig.record, *resp, rig.queue.now(), 6);
    EXPECT_TRUE(report.tampering_detected || resp->measurements.empty());
  }
}

}  // namespace
}  // namespace erasmus::attest
