#include "crypto/sha256.h"

#include <algorithm>
#include <bit>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace erasmus::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t load_be32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

inline void store_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline uint32_t big_sigma0(uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
inline uint32_t big_sigma1(uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
inline uint32_t small_sigma0(uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
inline uint32_t small_sigma1(uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

#if defined(__x86_64__) || defined(__i386__)

// sha256_blocks_portable (below) on the x86 SHA extensions. The state lives
// in two registers as the instructions want it, ABEF and CDGH, for the whole
// run of blocks. Each step of the loop runs four rounds (two sha256rnds2) on
// W[4i..4i+3] + K[4i..4i+3] and extends the message schedule by four words:
// sha256msg1 adds sigma0(W[t-15]) to W[t-16], the alignr supplies W[t-7], and
// sha256msg2 adds sigma1(W[t-2]).
__attribute__((target("sha,sse4.1"))) void blocks_sha_ni(
    std::array<uint32_t, 8>& state, const uint8_t* data, size_t blocks) {
  // Byte-swaps each 32-bit lane: message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          bswap);
    }
    for (int i = 0; i < 16; ++i) {
      const __m128i wk = _mm_add_epi32(
          w[0], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      // W[4i+16..4i+19]; the last four steps need no more words.
      const __m128i next =
          i < 12 ? _mm_sha256msg2_epu32(
                       _mm_add_epi32(_mm_sha256msg1_epu32(w[0], w[1]),
                                     _mm_alignr_epi8(w[3], w[2], 4)),
                       w[3])
                 : w[3];
      w[0] = w[1];
      w[1] = w[2];
      w[2] = w[3];
      w[3] = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ecx & bit_SSSE3) || !(ecx & bit_SSE4_1)) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & bit_SHA) != 0;
}

#endif

// The kernel update() runs: the accelerated one when the CPU has it.
detail::Sha256Kernel active_kernel() {
  static const detail::Sha256Kernel kernel = [] {
    const detail::Sha256Kernel fast = detail::sha256_blocks_accelerated();
    return fast ? fast : &detail::sha256_blocks_portable;
  }();
  return kernel;
}

}  // namespace

namespace detail {

void sha256_blocks_portable(std::array<uint32_t, 8>& state,
                            const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) +
             w[i - 16];
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
             e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t t1 =
          h + big_sigma1(e) + ((e & f) ^ (~e & g)) + kK[i] + w[i];
      const uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Kernel sha256_blocks_accelerated() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool available = cpu_has_sha_ni();
  if (available) return &blocks_sha_ni;
#endif
  return nullptr;
}

}  // namespace detail

const char* Sha256::kernel() {
  return active_kernel() == &detail::sha256_blocks_portable ? "portable"
                                                            : "sha-ni";
}

void Sha256::reset() {
  state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  total_bytes_ = 0;
  buffer_len_ = 0;
  buffer_.fill(0);
}

void Sha256::update(ByteView data) {
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    const size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::copy_n(data.data(), take, buffer_.data() + buffer_len_);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      active_kernel()(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const size_t blocks = (data.size() - offset) / kBlockSize;
  if (blocks > 0) {
    active_kernel()(state_, data.data() + offset, blocks);
    offset += blocks * kBlockSize;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::copy_n(data.data() + offset, buffer_len_, buffer_.data());
  }
}

void Sha256::finalize_into(Digest& out) {
  const uint64_t bit_len = total_bytes_ * 8;
  uint8_t pad[kBlockSize * 2] = {0x80};
  const size_t rem = static_cast<size_t>(total_bytes_ % kBlockSize);
  const size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  update(ByteView(pad, pad_len));
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(ByteView(len_be, 8));

  out.resize(kDigestSize);
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  reset();
}

}  // namespace erasmus::crypto
