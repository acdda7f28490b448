// HMAC (RFC 2104 / FIPS 198-1) over SHA-1 or SHA-256.
#pragma once

#include <array>
#include <initializer_list>

#include "crypto/hash.h"

namespace erasmus::crypto {

/// HMAC under one key. The key may be any length; keys longer than the
/// hash block size are hashed first, per the RFC. The constructor
/// compresses K xor ipad and K xor opad once and keeps only the two
/// chaining values they leave (RFC 2104 section 4), so a tag costs the
/// message's compressions plus two, and no allocation.
class Hmac {
 public:
  /// `algo` must be SHA-1 or SHA-256.
  Hmac(HashAlgo algo, ByteView key);

  /// The tag over the concatenation of `parts`.
  Digest tag(std::initializer_list<ByteView> parts) const;

  /// One-shot convenience.
  static Bytes compute(HashAlgo algo, ByteView key, ByteView message);

 private:
  HashAlgo algo_;
  // Chaining values after the inner and outer key blocks; SHA-1 uses the
  // first five words.
  std::array<uint32_t, 8> inner_{};
  std::array<uint32_t, 8> outer_{};
};

}  // namespace erasmus::crypto
