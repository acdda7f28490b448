#include "crypto/hkdf.h"

#include <stdexcept>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace erasmus::crypto {

namespace {
constexpr size_t kHashLen = Sha256::kDigestSize;
}

Bytes hkdf_extract(ByteView salt, ByteView ikm) {
  // RFC 5869: empty salt means a string of HashLen zeros.
  const Bytes zero_salt(kHashLen, 0x00);
  return Hmac::compute(HashAlgo::kSha256, salt.empty() ? ByteView(zero_salt)
                                                       : salt,
                       ikm);
}

Bytes hkdf_expand(ByteView prk, ByteView info, size_t length) {
  if (length > 255 * kHashLen) {
    throw std::invalid_argument("hkdf_expand: length > 255 * HashLen");
  }
  if (prk.size() < kHashLen) {
    throw std::invalid_argument("hkdf_expand: PRK shorter than HashLen");
  }
  const Hmac mac(HashAlgo::kSha256, prk);
  Bytes okm;
  okm.reserve(length);
  Digest t;  // T(0) = empty
  uint8_t counter = 1;
  while (okm.size() < length) {
    t = mac.tag({t, info, ByteView(&counter, 1)});
    const size_t take = std::min(kHashLen, length - okm.size());
    append(okm, t.bytes().first(take));
    ++counter;
  }
  return okm;
}

Bytes hkdf(ByteView ikm, ByteView salt, ByteView info, size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

}  // namespace erasmus::crypto
