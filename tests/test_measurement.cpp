// Tests for the measurement record M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>.
#include <gtest/gtest.h>

#include <type_traits>

#include "attest/measurement.h"
#include "common/serde.h"
#include "crypto/hmac.h"

namespace erasmus::attest {
namespace {

using crypto::MacAlgo;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

crypto::Mac test_mac(MacAlgo algo = MacAlgo::kHmacSha256) {
  return crypto::Mac(algo, test_key());
}

TEST(Measurement, StructureMatchesPaperDefinition) {
  const Bytes mem = bytes_of("device memory contents at time t");
  const uint64_t t = 1492453673;  // Fig. 3's example timestamp
  const Measurement m = compute_measurement(test_mac(), mem, t);

  EXPECT_EQ(m.timestamp, t);
  EXPECT_EQ(m.digest, crypto::Hash::digest(crypto::HashAlgo::kSha256, mem));
  ByteWriter mac_input;
  mac_input.u64(t);
  mac_input.raw(m.digest);
  EXPECT_EQ(m.mac, crypto::Hmac::compute(crypto::HashAlgo::kSha256, test_key(),
                                         mac_input.bytes()));
}

TEST(Measurement, VerifyAcceptsGenuine) {
  const Measurement m = compute_measurement(test_mac(), bytes_of("mem"), 100);
  EXPECT_TRUE(verify_measurement(test_mac(), m));
}

TEST(Measurement, VerifyRejectsAnyFieldTamper) {
  const Measurement base =
      compute_measurement(test_mac(), bytes_of("mem"), 100);

  Measurement t_changed = base;
  t_changed.timestamp = 101;  // the timestamp is MAC-bound
  EXPECT_FALSE(verify_measurement(test_mac(), t_changed));

  Measurement d_changed = base;
  d_changed.digest[0] ^= 1;
  EXPECT_FALSE(verify_measurement(test_mac(), d_changed));

  Measurement m_changed = base;
  m_changed.mac[0] ^= 1;
  EXPECT_FALSE(verify_measurement(test_mac(), m_changed));
}

TEST(Measurement, VerifyRejectsWrongKey) {
  const Measurement m = compute_measurement(test_mac(), bytes_of("mem"), 100);
  EXPECT_FALSE(verify_measurement(
      crypto::Mac(MacAlgo::kHmacSha256, bytes_of("wrong key")), m));
}

TEST(Measurement, SerializeRoundTrips) {
  for (auto algo : crypto::all_mac_algos()) {
    const Measurement m =
        compute_measurement(test_mac(algo), bytes_of("mem"), 42);
    const auto back = Measurement::deserialize(m.serialize());
    ASSERT_TRUE(back.has_value()) << crypto::to_string(algo);
    EXPECT_EQ(*back, m);
  }
}

TEST(Measurement, DeserializeRejectsTruncationAndTrailing) {
  const Measurement m = compute_measurement(test_mac(), bytes_of("mem"), 42);
  Bytes wire = m.serialize();
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(Measurement::deserialize(truncated).has_value());
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(Measurement::deserialize(padded).has_value());
  EXPECT_FALSE(Measurement::deserialize(Bytes{}).has_value());
}

TEST(Measurement, WireFormatIsTimestampThenTwoLengthPrefixedFields) {
  for (auto algo : crypto::all_mac_algos()) {
    const Measurement m =
        compute_measurement(test_mac(algo), bytes_of("mem"), 1);
    const size_t width = algo == MacAlgo::kHmacSha1 ? 20 : 32;
    EXPECT_EQ(m.digest.size(), width) << crypto::to_string(algo);
    EXPECT_EQ(m.mac.size(), width) << crypto::to_string(algo);
    ByteWriter w;
    w.u64(m.timestamp);
    w.var_bytes(m.digest);
    w.var_bytes(m.mac);
    EXPECT_EQ(m.serialize(), w.bytes()) << crypto::to_string(algo);
  }
}

TEST(Measurement, RecordIsOneInlineValue) {
  static_assert(std::is_trivially_copyable_v<Measurement>);
  EXPECT_LE(sizeof(Measurement), 80u);
}

TEST(Measurement, HashPairingFollowsConstruction) {
  EXPECT_EQ(hash_for(MacAlgo::kHmacSha1), crypto::HashAlgo::kSha1);
  EXPECT_EQ(hash_for(MacAlgo::kHmacSha256), crypto::HashAlgo::kSha256);
  EXPECT_EQ(hash_for(MacAlgo::kKeyedBlake2s), crypto::HashAlgo::kBlake2s);
}

TEST(Measurement, MacInputBindsTimestampLittleEndian) {
  const Bytes mem = bytes_of("mem");
  for (auto algo : crypto::all_mac_algos()) {
    const Measurement m =
        compute_measurement(test_mac(algo), mem, 0x0102030405060708ull);
    Bytes input = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
    append(input, m.digest);
    EXPECT_EQ(m.mac, crypto::Mac::compute(algo, test_key(), input))
        << crypto::to_string(algo);
  }
}

TEST(MeasurementProtected, MatchesHostComputation) {
  hw::SmartPlusArch arch(test_key(), 4096, 1024, 512);
  arch.memory().write(arch.app_region(), 0, bytes_of("application image"),
                      /*privileged=*/false);
  const Measurement via_arch = compute_measurement_protected(
      arch, MacAlgo::kHmacSha256, arch.app_region(), 7);

  const ByteView mem = arch.memory().view(arch.app_region(), true);
  const Measurement direct = compute_measurement(test_mac(), mem, 7);
  EXPECT_EQ(via_arch, direct);
}

TEST(MeasurementProtected, SeesFullAttestedRegion) {
  hw::SmartPlusArch arch(test_key(), 4096, 1024, 512);
  const Measurement before = compute_measurement_protected(
      arch, MacAlgo::kHmacSha256, arch.app_region(), 1);
  // Flip one byte at the END of the region; the digest must change.
  arch.memory().write(arch.app_region(), 1023, Bytes{0xff}, false);
  const Measurement after = compute_measurement_protected(
      arch, MacAlgo::kHmacSha256, arch.app_region(), 1);
  EXPECT_NE(before.digest, after.digest);
}

TEST(MeasurementProtected, WorksOnHydraAfterBoot) {
  hw::HydraArch arch(test_key(), 2048, 512);
  arch.secure_boot();
  const Measurement m = compute_measurement_protected(
      arch, MacAlgo::kKeyedBlake2s, arch.app_region(), 9);
  EXPECT_TRUE(verify_measurement(test_mac(MacAlgo::kKeyedBlake2s), m));
}

// Property: measurements over distinct (memory, t, key) tuples are unique
// -- the paper relies on this ("unique for every device and every
// timestamp value").
class MeasurementUniqueness : public ::testing::TestWithParam<MacAlgo> {};

TEST_P(MeasurementUniqueness, DistinctAcrossTimeMemoryAndKey) {
  const auto algo = GetParam();
  const Measurement a =
      compute_measurement(test_mac(algo), bytes_of("mem"), 1);
  const Measurement b =
      compute_measurement(test_mac(algo), bytes_of("mem"), 2);
  const Measurement c =
      compute_measurement(test_mac(algo), bytes_of("mem!"), 1);
  const Measurement d = compute_measurement(
      crypto::Mac(algo, bytes_of("other-device-key!")), bytes_of("mem"), 1);
  EXPECT_NE(a.mac, b.mac);
  EXPECT_NE(a.mac, c.mac);
  EXPECT_NE(a.mac, d.mac);
  EXPECT_NE(a.digest, c.digest);
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, MeasurementUniqueness,
                         ::testing::ValuesIn(crypto::all_mac_algos()));

}  // namespace
}  // namespace erasmus::attest
