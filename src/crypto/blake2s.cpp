#include "crypto/blake2s.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace erasmus::crypto {

namespace {

constexpr uint32_t kIv[8] = {0x6A09E667u, 0xBB67AE85u, 0x3C6EF372u,
                             0xA54FF53Au, 0x510E527Fu, 0x9B05688Cu,
                             0x1F83D9ABu, 0x5BE0CD19u};

constexpr uint8_t kSigma[10][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0}};

inline uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline void store_le32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void g(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d, uint32_t x,
              uint32_t y) {
  a = a + b + x;
  d = std::rotr(d ^ a, 16);
  c = c + d;
  b = std::rotr(b ^ c, 12);
  a = a + b + y;
  d = std::rotr(d ^ a, 8);
  c = c + d;
  b = std::rotr(b ^ c, 7);
}

}  // namespace

Blake2s::Blake2s(size_t digest_size) : digest_size_(digest_size) {
  if (digest_size_ == 0 || digest_size_ > kMaxDigestSize) {
    throw std::invalid_argument("Blake2s: digest size must be 1..32");
  }
  init_state();
}

Blake2s::Blake2s(ByteView key, size_t digest_size) : digest_size_(digest_size) {
  if (digest_size_ == 0 || digest_size_ > kMaxDigestSize) {
    throw std::invalid_argument("Blake2s: digest size must be 1..32");
  }
  if (key.empty() || key.size() > kMaxKeySize) {
    throw std::invalid_argument("Blake2s: key size must be 1..32");
  }
  key_size_ = key.size();
  std::copy(key.begin(), key.end(), key_.begin());
  init_state();
}

void Blake2s::init_state() {
  for (int i = 0; i < 8; ++i) h_[i] = kIv[i];
  // Parameter block word 0: digest_length | key_length << 8 | fanout << 16
  // | depth << 24, with fanout = depth = 1 (sequential mode).
  h_[0] ^= static_cast<uint32_t>(digest_size_) |
           static_cast<uint32_t>(key_size_) << 8 | 0x01010000u;
  counter_ = 0;
  buffer_len_ = 0;
  buffer_.fill(0);
  if (key_size_ > 0) {
    // Keyed mode: the key, zero-padded to a full block, is the first block.
    std::array<uint8_t, kBlockSize> key_block{};
    std::copy_n(key_.data(), key_size_, key_block.data());
    std::copy(key_block.begin(), key_block.end(), buffer_.begin());
    buffer_len_ = kBlockSize;
  }
}

void Blake2s::process_block(const uint8_t* block, bool is_last) {
  uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  uint32_t v[16];
  for (int i = 0; i < 8; ++i) v[i] = h_[i];
  for (int i = 0; i < 8; ++i) v[8 + i] = kIv[i];
  v[12] ^= static_cast<uint32_t>(counter_);
  v[13] ^= static_cast<uint32_t>(counter_ >> 32);
  if (is_last) v[14] = ~v[14];

  for (int round = 0; round < 10; ++round) {
    const uint8_t* s = kSigma[round];
    g(v[0], v[4], v[8], v[12], m[s[0]], m[s[1]]);
    g(v[1], v[5], v[9], v[13], m[s[2]], m[s[3]]);
    g(v[2], v[6], v[10], v[14], m[s[4]], m[s[5]]);
    g(v[3], v[7], v[11], v[15], m[s[6]], m[s[7]]);
    g(v[0], v[5], v[10], v[15], m[s[8]], m[s[9]]);
    g(v[1], v[6], v[11], v[12], m[s[10]], m[s[11]]);
    g(v[2], v[7], v[8], v[13], m[s[12]], m[s[13]]);
    g(v[3], v[4], v[9], v[14], m[s[14]], m[s[15]]);
  }

  for (int i = 0; i < 8; ++i) h_[i] ^= v[i] ^ v[8 + i];
}

void Blake2s::update(ByteView data) {
  size_t offset = 0;
  while (offset < data.size()) {
    if (buffer_len_ == kBlockSize) {
      // Buffer full and more input follows: this cannot be the last block.
      counter_ += kBlockSize;
      process_block(buffer_.data(), /*is_last=*/false);
      buffer_len_ = 0;
    }
    const size_t take = std::min(kBlockSize - buffer_len_,
                                 data.size() - offset);
    std::copy_n(data.data() + offset, take, buffer_.data() + buffer_len_);
    buffer_len_ += take;
    offset += take;
  }
}

void Blake2s::finalize_into(Digest& out) {
  // Pad the final (possibly empty) block with zeros.
  counter_ += buffer_len_;
  std::fill(buffer_.begin() + buffer_len_, buffer_.end(), 0);
  process_block(buffer_.data(), /*is_last=*/true);

  std::array<uint8_t, kMaxDigestSize> full{};
  for (int i = 0; i < 8; ++i) store_le32(full.data() + 4 * i, h_[i]);
  out.assign(ByteView(full.data(), digest_size_));
  init_state();
}

void Blake2s::reset() { init_state(); }

Blake2sMac::Blake2sMac(ByteView key) {
  Blake2s h(key, Blake2s::kMaxDigestSize);  // validates the key length
  std::copy(key.begin(), key.end(), key_.begin());
  key_size_ = static_cast<uint8_t>(key.size());
  // More input follows the key block, so it is not the last block.
  h.counter_ += Blake2s::kBlockSize;
  h.process_block(h.buffer_.data(), /*is_last=*/false);
  after_key_ = h.h_;
}

Digest Blake2sMac::tag(std::initializer_list<ByteView> parts) const {
  Blake2s h(ByteView(key_.data(), key_size_), Blake2s::kMaxDigestSize);
  bool empty = true;
  for (const ByteView part : parts) empty = empty && part.empty();
  if (!empty) {
    h.h_ = after_key_;
    h.counter_ = Blake2s::kBlockSize;
    h.buffer_len_ = 0;
    for (const ByteView part : parts) h.update(part);
  }
  Digest out;
  h.finalize_into(out);
  return out;
}

}  // namespace erasmus::crypto
