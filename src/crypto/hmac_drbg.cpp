#include "crypto/hmac_drbg.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "crypto/sha256.h"

namespace erasmus::crypto {

namespace {
constexpr size_t kOutLen = Sha256::kDigestSize;

// Instantiation's initial K = 0x00...00 as HMAC state: its two key blocks
// are compressed once per process, not once per generator.
const Hmac& zero_key() {
  static const Hmac kZero(HashAlgo::kSha256, std::array<uint8_t, kOutLen>{});
  return kZero;
}
}  // namespace

HmacDrbg::HmacDrbg(ByteView seed, ByteView personalization)
    : key_(zero_key()) {
  std::array<uint8_t, kOutLen> ones;
  ones.fill(0x01);
  v_.assign(ones);
  update(seed, personalization);
}

void HmacDrbg::update(ByteView head, ByteView tail) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V)
  const uint8_t zero = 0x00;
  key_ = Hmac(HashAlgo::kSha256,
              key_.tag({v_, ByteView(&zero, 1), head, tail}));
  v_ = key_.tag({v_});
  if (head.empty() && tail.empty()) return;
  const uint8_t one = 0x01;
  key_ = Hmac(HashAlgo::kSha256,
              key_.tag({v_, ByteView(&one, 1), head, tail}));
  v_ = key_.tag({v_});
}

void HmacDrbg::fill(std::span<uint8_t> out) {
  size_t produced = 0;
  while (produced < out.size()) {
    v_ = key_.tag({v_});
    const size_t take = std::min(kOutLen, out.size() - produced);
    std::copy_n(v_.bytes().begin(), take, out.data() + produced);
    produced += take;
  }
}

void HmacDrbg::generate(std::span<uint8_t> out) {
  fill(out);
  update({});
}

void HmacDrbg::generate_once(ByteView seed, ByteView personalization,
                             std::span<uint8_t> out) {
  HmacDrbg(seed, personalization).fill(out);
}

Bytes HmacDrbg::generate(size_t n) {
  Bytes out(n);
  generate(std::span<uint8_t>(out));
  return out;
}

uint64_t HmacDrbg::next_u64() {
  uint8_t buf[8];
  generate(std::span<uint8_t>(buf, 8));
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

uint64_t HmacDrbg::next_below(uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("next_below: bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - (UINT64_MAX % bound);
  uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

void HmacDrbg::reseed(ByteView input) { update(input); }

}  // namespace erasmus::crypto
