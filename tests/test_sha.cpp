// Known-answer and property tests for SHA-1 and SHA-256.
//
// KATs are the FIPS 180 / RFC examples ("abc", empty string, two-block
// message, million 'a's) plus streaming-equivalence and reuse properties.
// The Sha256Kernels cases test the SHA-NI compression kernel against the
// portable one, and Sha256::update against a portable-only reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "common/hex.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace erasmus::crypto {
namespace {

Bytes hex(std::string_view s) { return from_hex(s).value(); }

TEST(Sha1, Fips180KnownAnswers) {
  EXPECT_EQ(Hash::digest(HashAlgo::kSha1, bytes_of("abc")),
            hex("a9993e364706816aba3e25717850c26c9cd0d89d"));
  EXPECT_EQ(Hash::digest(HashAlgo::kSha1, bytes_of("")),
            hex("da39a3ee5e6b4b0d3255bfef95601890afd80709"));
  EXPECT_EQ(
      Hash::digest(HashAlgo::kSha1,
                   bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                            "mnopnopq")),
      hex("84983e441c3bd26ebaae4aa1f95129e5e54670f1"));
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize(), hex("34aa973cd4c4daa4f61eeb2bdbad27316534016f"));
}

TEST(Sha256, Fips180KnownAnswers) {
  EXPECT_EQ(
      Hash::digest(HashAlgo::kSha256, bytes_of("abc")),
      hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"));
  EXPECT_EQ(
      Hash::digest(HashAlgo::kSha256, bytes_of("")),
      hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"));
  EXPECT_EQ(
      Hash::digest(HashAlgo::kSha256,
                   bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                            "mnopnopq")),
      hex("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"));
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(20000, 'a');
  for (int i = 0; i < 50; ++i) h.update(chunk);
  EXPECT_EQ(
      h.finalize(),
      hex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"));
}

TEST(Sha256, FinalizeResetsForReuse) {
  Sha256 h;
  h.update(bytes_of("abc"));
  const Bytes first = h.finalize();
  h.update(bytes_of("abc"));
  EXPECT_EQ(h.finalize(), first);
}

TEST(Sha256, ResetDiscardsPendingInput) {
  Sha256 h;
  h.update(bytes_of("garbage"));
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(h.finalize(), Hash::digest(HashAlgo::kSha256, bytes_of("abc")));
}

TEST(Sha256, MetadataMatchesSpec) {
  Sha256 h;
  EXPECT_EQ(h.digest_size(), 32u);
  EXPECT_EQ(h.block_size(), 64u);
  EXPECT_EQ(h.algo(), HashAlgo::kSha256);
}

TEST(Sha1, MetadataMatchesSpec) {
  Sha1 h;
  EXPECT_EQ(h.digest_size(), 20u);
  EXPECT_EQ(h.block_size(), 64u);
}

TEST(HashFactory, CreatesEveryAlgorithm) {
  for (auto algo :
       {HashAlgo::kSha1, HashAlgo::kSha256, HashAlgo::kBlake2s}) {
    auto h = Hash::create(algo);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->algo(), algo);
  }
}

TEST(HashNames, AreHumanReadable) {
  EXPECT_EQ(to_string(HashAlgo::kSha1), "SHA-1");
  EXPECT_EQ(to_string(HashAlgo::kSha256), "SHA-256");
  EXPECT_EQ(to_string(HashAlgo::kBlake2s), "BLAKE2s");
}

// Property: chunked streaming must equal one-shot hashing for any chunking
// and any message length straddling block boundaries.
struct StreamCase {
  HashAlgo algo;
  size_t message_len;
  size_t chunk;
};

class HashStreamingProperty : public ::testing::TestWithParam<StreamCase> {};

TEST_P(HashStreamingProperty, ChunkedEqualsOneShot) {
  const auto& p = GetParam();
  Bytes msg(p.message_len);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const Bytes expected = Hash::digest(p.algo, msg);

  auto h = Hash::create(p.algo);
  for (size_t off = 0; off < msg.size(); off += p.chunk) {
    const size_t len = std::min(p.chunk, msg.size() - off);
    h->update(ByteView(msg).subspan(off, len));
  }
  EXPECT_EQ(h->finalize(), expected);
}

std::vector<StreamCase> stream_cases() {
  std::vector<StreamCase> cases;
  for (auto algo : {HashAlgo::kSha1, HashAlgo::kSha256, HashAlgo::kBlake2s}) {
    for (size_t len : {0ul, 1ul, 55ul, 56ul, 63ul, 64ul, 65ul, 127ul, 128ul,
                       1000ul}) {
      for (size_t chunk : {1ul, 3ul, 64ul, 100ul}) {
        if (chunk <= len || len == 0) {
          cases.push_back({algo, len, std::max<size_t>(chunk, 1)});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgosAndBoundaries, HashStreamingProperty,
                         ::testing::ValuesIn(stream_cases()));

// Property: any single-bit flip changes the digest (avalanche smoke test).
class HashBitFlipProperty : public ::testing::TestWithParam<HashAlgo> {};

TEST_P(HashBitFlipProperty, SingleBitFlipChangesDigest) {
  Bytes msg(129);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);
  const Bytes base = Hash::digest(GetParam(), msg);
  for (size_t byte : {0ul, 63ul, 64ul, 128ul}) {
    Bytes mutated = msg;
    mutated[byte] ^= 0x01;
    EXPECT_NE(Hash::digest(GetParam(), mutated), base)
        << "flip at byte " << byte;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, HashBitFlipProperty,
                         ::testing::Values(HashAlgo::kSha1, HashAlgo::kSha256,
                                           HashAlgo::kBlake2s));

// --- SHA-256 kernels ---------------------------------------------------------

using Sha256State = std::array<uint32_t, 8>;

// SplitMix64: seeded states and messages for the kernel comparisons.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  Bytes bytes(size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<uint8_t>(next() >> 56);
    return out;
  }
  Sha256State state() {
    Sha256State out;
    for (auto& w : out) w = static_cast<uint32_t>(next() >> 32);
    return out;
  }

 private:
  uint64_t s_;
};

// SHA-256 of `msg` through the portable kernel alone: FIPS 180 padding done
// here, so neither Sha256::update's buffering nor the dispatch is involved.
Bytes portable_digest(ByteView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  Sha256State state = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
                       0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  detail::sha256_blocks_portable(state, padded.data(),
                                 padded.size() / Sha256::kBlockSize);
  Bytes out;
  for (uint32_t w : state) {
    for (int i = 3; i >= 0; --i) {
      out.push_back(static_cast<uint8_t>(w >> (8 * i)));
    }
  }
  return out;
}

TEST(Sha256Kernels, KernelNameMatchesTheDispatch) {
  EXPECT_STREQ(Sha256::kernel(),
               detail::sha256_blocks_accelerated() ? "sha-ni" : "portable");
}

TEST(Sha256Kernels, PortableReferenceMatchesKnownAnswers) {
  EXPECT_EQ(
      portable_digest(bytes_of("abc")),
      hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"));
  EXPECT_EQ(
      portable_digest(bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmn"
                               "lmnomnopnopq")),
      hex("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"));
}

// From any state, after any number of blocks, the SHA-NI kernel leaves the
// state the portable kernel leaves: 1-80 blocks, then one input the size of
// HYDRA's seL4 kernel image (160 KiB), which secure boot hashes.
TEST(Sha256Kernels, AcceleratedMatchesPortableFromRandomStates) {
  const detail::Sha256Kernel accelerated = detail::sha256_blocks_accelerated();
  if (!accelerated) {
    GTEST_SKIP() << "no accelerated kernel on this CPU; update() runs the "
                 << Sha256::kernel() << " kernel";
  }
  std::vector<size_t> block_counts(80);
  std::iota(block_counts.begin(), block_counts.end(), size_t{1});
  block_counts.push_back(160 * 1024 / Sha256::kBlockSize);
  SplitMix rng(0x5a256);
  for (const size_t blocks : block_counts) {
    const Sha256State start = rng.state();
    const Bytes data = rng.bytes(blocks * Sha256::kBlockSize);
    Sha256State portable = start;
    Sha256State fast = start;
    detail::sha256_blocks_portable(portable, data.data(), blocks);
    accelerated(fast, data.data(), blocks);
    EXPECT_EQ(fast, portable) << blocks << " blocks";
  }
}

// update() hands whole blocks to the kernel straight from the caller's
// buffer, so it must not care where that buffer starts or how the input was
// cut: a partial block first, then a multi-block run, then a tail.
TEST(Sha256Kernels, UpdateMatchesPortableOnUnalignedAndSplitInput) {
  SplitMix rng(1515);
  const Bytes backing = rng.bytes(16 + 20 * Sha256::kBlockSize);
  for (size_t offset = 1; offset <= 15; ++offset) {
    for (size_t len : {size_t{64}, size_t{640}, size_t{1000}, size_t{1279}}) {
      const ByteView msg(backing.data() + offset, len);
      const Bytes expected = portable_digest(msg);
      ASSERT_EQ(Hash::digest(HashAlgo::kSha256, msg), expected)
          << "offset " << offset << ", " << len << " bytes";
      for (size_t head : {size_t{1}, size_t{17}, size_t{63}}) {
        for (size_t run_blocks : {size_t{0}, size_t{1}, size_t{3}, size_t{8}}) {
          const size_t run =
              std::min(run_blocks * Sha256::kBlockSize, len - head);
          Sha256 h;
          h.update(msg.first(head));
          h.update(msg.subspan(head, run));
          h.update(msg.subspan(head + run));
          EXPECT_EQ(h.finalize(), expected)
              << "offset " << offset << ", " << len << " bytes, split "
              << head << "+" << run;
        }
      }
    }
  }
}

}  // namespace
}  // namespace erasmus::crypto
