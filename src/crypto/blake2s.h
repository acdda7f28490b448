// BLAKE2s (RFC 7693), with native keyed mode.
//
// The paper's third MAC option is "keyed BLAKE2S". BLAKE2s is the 32-bit
// flavour, a natural fit for the MSP430-class devices SMART+ targets; its
// keyed mode replaces HMAC (the key is absorbed as a padded first block), so
// a keyed-BLAKE2s MAC costs one hash pass instead of HMAC's two.
#pragma once

#include <array>
#include <initializer_list>

#include "crypto/hash.h"

namespace erasmus::crypto {

class Blake2s final : public Hash {
 public:
  static constexpr size_t kMaxDigestSize = 32;
  static constexpr size_t kBlockSize = 64;
  static constexpr size_t kMaxKeySize = 32;

  /// Unkeyed hash with `digest_size` output bytes (1..32, default 32).
  explicit Blake2s(size_t digest_size = kMaxDigestSize);
  /// Keyed mode (MAC). `key` must be 1..32 bytes.
  Blake2s(ByteView key, size_t digest_size);

  void update(ByteView data) override;
  void finalize_into(Digest& out) override;
  void reset() override;

  size_t digest_size() const override { return digest_size_; }
  size_t block_size() const override { return kBlockSize; }
  HashAlgo algo() const override { return HashAlgo::kBlake2s; }

 private:
  friend class Blake2sMac;

  void init_state();
  void process_block(const uint8_t* block, bool is_last);

  std::array<uint32_t, 8> h_{};
  std::array<uint8_t, kBlockSize> buffer_{};
  std::array<uint8_t, kMaxKeySize> key_{};
  uint64_t counter_ = 0;  // bytes compressed so far
  size_t buffer_len_ = 0;
  size_t digest_size_;
  size_t key_size_ = 0;
};

/// Keyed BLAKE2s as a MAC with 32-byte tags. The key block is compressed
/// once per key, and a tag over a non-empty message resumes from the state
/// it leaves. An empty message makes the key block also the last block, so
/// its tag hashes the key block again. No tag allocates.
class Blake2sMac {
 public:
  /// `key` must be 1..32 bytes.
  explicit Blake2sMac(ByteView key);

  /// The tag over the concatenation of `parts`.
  Digest tag(std::initializer_list<ByteView> parts) const;

 private:
  std::array<uint8_t, Blake2s::kMaxKeySize> key_{};
  uint8_t key_size_ = 0;
  std::array<uint32_t, 8> after_key_{};  // h once the key block is absorbed
};

}  // namespace erasmus::crypto
