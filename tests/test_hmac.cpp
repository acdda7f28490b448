// HMAC known-answer tests (RFC 2202 for SHA-1, RFC 4231 for SHA-256) and
// tests for the Mac abstraction used by the measurement code.
#include <gtest/gtest.h>

#include <random>

#include "common/hex.h"
#include "crypto/blake2s.h"
#include "crypto/hmac.h"
#include "crypto/mac.h"

namespace erasmus::crypto {
namespace {

Bytes hex(std::string_view s) { return from_hex(s).value(); }

TEST(HmacSha1, Rfc2202Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(Hmac::compute(HashAlgo::kSha1, key, bytes_of("Hi There")),
            hex("b617318655057264e28bc0b6fb378c8ef146be00"));
}

TEST(HmacSha1, Rfc2202Case2) {
  EXPECT_EQ(Hmac::compute(HashAlgo::kSha1, bytes_of("Jefe"),
                          bytes_of("what do ya want for nothing?")),
            hex("effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"));
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(
      Hmac::compute(HashAlgo::kSha256, key, bytes_of("Hi There")),
      hex("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"));
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      Hmac::compute(HashAlgo::kSha256, bytes_of("Jefe"),
                    bytes_of("what do ya want for nothing?")),
      hex("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"));
}

TEST(HmacSha256, Rfc4231Case3FiftyAa) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(
      Hmac::compute(HashAlgo::kSha256, key, data),
      hex("773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"));
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      Hmac::compute(HashAlgo::kSha256, key,
                    bytes_of("Test Using Larger Than Block-Size Key - Hash "
                             "Key First")),
      hex("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"));
}

TEST(Hmac, PartsEqualOneShot) {
  const Hmac mac(HashAlgo::kSha256, bytes_of("key"));
  EXPECT_EQ(mac.tag({bytes_of("hello "), bytes_of("world")}),
            Hmac::compute(HashAlgo::kSha256, bytes_of("key"),
                          bytes_of("hello world")));
}

TEST(Hmac, TagLeavesTheKeyStateUnchanged) {
  const Hmac mac(HashAlgo::kSha256, bytes_of("key"));
  const Digest t1 = mac.tag({bytes_of("m1")});
  EXPECT_NE(mac.tag({bytes_of("m2")}), t1);
  EXPECT_EQ(mac.tag({bytes_of("m1")}), t1);
}

TEST(Hmac, RejectsBlake2s) {
  EXPECT_THROW(Hmac(HashAlgo::kBlake2s, bytes_of("key")),
               std::invalid_argument);
}

// --- Mac abstraction ---------------------------------------------------------

TEST(Mac, CoversAllAlgorithms) {
  for (auto algo : all_mac_algos()) {
    const Mac mac(algo, bytes_of("0123456789abcdef0123456789abcdef"));
    EXPECT_EQ(mac.algo(), algo);
    EXPECT_GT(mac.tag_size(), 0u);
    EXPECT_EQ(mac.tag({bytes_of("m")}).size(), mac.tag_size());
  }
}

TEST(Mac, DefaultIsHmacSha256UnderTheEmptyKey) {
  const Mac mac;
  EXPECT_EQ(mac.algo(), MacAlgo::kHmacSha256);
  EXPECT_EQ(mac.tag({bytes_of("m")}),
            Hmac::compute(HashAlgo::kSha256, {}, bytes_of("m")));
}

TEST(MacKey, KeepsTheRawKeyBesideItsState) {
  const Bytes key = bytes_of("device key");
  const MacKey k(MacAlgo::kHmacSha1, key);
  EXPECT_EQ(k.algo(), MacAlgo::kHmacSha1);
  EXPECT_EQ(k.size(), key.size());
  EXPECT_TRUE(equal(k.bytes(), key));
  EXPECT_EQ(k.mac().tag({bytes_of("m")}),
            Mac::compute(MacAlgo::kHmacSha1, key, bytes_of("m")));
  EXPECT_TRUE(MacKey().empty());
}

TEST(Mac, HmacImplementationsMatchHmacClass) {
  const Bytes key = bytes_of("some key");
  const Bytes msg = bytes_of("some message");
  EXPECT_EQ(Mac::compute(MacAlgo::kHmacSha1, key, msg),
            Hmac::compute(HashAlgo::kSha1, key, msg));
  EXPECT_EQ(Mac::compute(MacAlgo::kHmacSha256, key, msg),
            Hmac::compute(HashAlgo::kSha256, key, msg));
}

TEST(Mac, VerifyAcceptsValidTag) {
  const Bytes key = bytes_of("k");
  const Bytes msg = bytes_of("m");
  for (auto algo : all_mac_algos()) {
    const Bytes tag = Mac::compute(algo, key, msg);
    EXPECT_TRUE(Mac::verify(algo, key, msg, tag)) << to_string(algo);
  }
}

TEST(Mac, VerifyRejectsTamperedTagMessageOrKey) {
  const Bytes key = bytes_of("k");
  const Bytes msg = bytes_of("m");
  for (auto algo : all_mac_algos()) {
    Bytes tag = Mac::compute(algo, key, msg);
    Bytes bad_tag = tag;
    bad_tag[0] ^= 1;
    EXPECT_FALSE(Mac::verify(algo, key, msg, bad_tag));
    EXPECT_FALSE(Mac::verify(algo, key, bytes_of("m2"), tag));
    EXPECT_FALSE(Mac::verify(algo, bytes_of("k2"), msg, tag));
    EXPECT_FALSE(Mac::verify(algo, key, msg, Bytes(tag.begin(), tag.end() - 1)));
  }
}

TEST(Mac, NamesMatchTable1) {
  EXPECT_EQ(to_string(MacAlgo::kHmacSha1), "HMAC-SHA1");
  EXPECT_EQ(to_string(MacAlgo::kHmacSha256), "HMAC-SHA256");
  EXPECT_EQ(to_string(MacAlgo::kKeyedBlake2s), "Keyed BLAKE2S");
}

TEST(Mac, Sha1IsDeprecatedForDeployment) {
  // The paper: "We exclude it in our actual implementations due to a recent
  // collision attack in SHA1."
  EXPECT_TRUE(deprecated_for_deployment(MacAlgo::kHmacSha1));
  EXPECT_FALSE(deprecated_for_deployment(MacAlgo::kHmacSha256));
  EXPECT_FALSE(deprecated_for_deployment(MacAlgo::kKeyedBlake2s));
}

TEST(CtEqual, ComparesCorrectly) {
  EXPECT_TRUE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

// Property: a tag over a message split into parts at any point equals the
// one-shot tag, for every algorithm across sizes.
struct MacCase {
  MacAlgo algo;
  size_t len;
};

class MacPartsProperty : public ::testing::TestWithParam<MacCase> {};

TEST_P(MacPartsProperty, PartsEqualOneShot) {
  const auto& p = GetParam();
  const Bytes key = bytes_of("shared-device-key-K");
  Bytes msg(p.len);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 17 + 3);
  }
  const Mac mac(p.algo, key);
  const Bytes one_shot = Mac::compute(p.algo, key, msg);
  const ByteView view(msg);
  for (size_t cut = 0; cut <= msg.size(); cut += 37) {
    const size_t mid = std::min<size_t>(cut + 64, msg.size());
    EXPECT_EQ(mac.tag({view.first(cut), view.subspan(cut, mid - cut),
                       view.subspan(mid)}),
              one_shot)
        << to_string(p.algo) << " cut=" << cut;
  }
}

std::vector<MacCase> mac_cases() {
  std::vector<MacCase> cases;
  for (auto algo : all_mac_algos()) {
    for (size_t len : {0ul, 1ul, 64ul, 65ul, 512ul, 10000ul}) {
      cases.push_back({algo, len});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgosAndSizes, MacPartsProperty,
                         ::testing::ValuesIn(mac_cases()));

// Differential test: the keyed MAC (per-key state derived once) against
// the textbook constructions -- RFC 2104's formula written out over
// Hash::digest for HMAC, and BLAKE2s's one-shot keyed hash -- over seeded
// random keys and messages, including empty messages and keys longer than
// a block.
Bytes textbook_hmac(HashAlgo hash, ByteView key, ByteView msg) {
  constexpr size_t kBlock = 64;
  Bytes k(key.begin(), key.end());
  if (k.size() > kBlock) k = Hash::digest(hash, k);
  k.resize(kBlock, 0x00);
  Bytes ipad(kBlock), opad(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  const Bytes inner = Hash::digest(hash, concat(ipad, msg));
  return Hash::digest(hash, concat(opad, inner));
}

Bytes one_shot_keyed_blake2s(ByteView key, ByteView msg) {
  Blake2s h(key, Blake2s::kMaxDigestSize);
  h.update(msg);
  return h.finalize();
}

TEST(MacDifferential, KeyedStateMatchesTextbookConstructions) {
  std::mt19937 rng(20260418);
  const auto random_bytes = [&rng](size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<uint8_t>(rng());
    return out;
  };
  size_t compared = 0;
  for (size_t key_len = 0; key_len <= 130; ++key_len) {
    const Bytes key = random_bytes(key_len);
    for (size_t msg_len : {size_t{0}, size_t{1}, size_t{55}, size_t{56},
                           size_t{64}, size_t{65}, size_t{200},
                           static_cast<size_t>(rng() % 201)}) {
      const Bytes msg = random_bytes(msg_len);
      const ByteView view(msg);
      const ByteView head = view.first(msg_len / 3);
      const ByteView tail = view.subspan(msg_len / 3);
      for (auto algo : all_mac_algos()) {
        Bytes expected;
        if (algo == MacAlgo::kKeyedBlake2s) {
          if (key_len == 0 || key_len > Blake2s::kMaxKeySize) continue;
          expected = one_shot_keyed_blake2s(key, msg);
        } else {
          expected = textbook_hmac(algo == MacAlgo::kHmacSha1
                                       ? HashAlgo::kSha1
                                       : HashAlgo::kSha256,
                                   key, msg);
        }
        const Mac mac(algo, key);
        ASSERT_EQ(mac.tag({msg}), expected)
            << to_string(algo) << " key=" << key_len << " msg=" << msg_len;
        ASSERT_EQ(mac.tag({head, tail}), expected);
        ASSERT_TRUE(mac.verify({msg}, expected));
        ASSERT_EQ(Mac::compute(algo, key, msg), expected);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 2000u);
}

}  // namespace
}  // namespace erasmus::crypto
