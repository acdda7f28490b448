#include "crypto/hmac.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace erasmus::crypto {

namespace {

using Words = std::array<uint32_t, 8>;

// The chaining value one key block leaves: the key, zero-padded to a
// block, xor `pad`.
template <typename H>
void compress_key_block(const std::array<uint8_t, H::kBlockSize>& key,
                        uint8_t pad, Words& cv) {
  std::array<uint8_t, H::kBlockSize> block;
  for (size_t i = 0; i < block.size(); ++i) block[i] = key[i] ^ pad;
  H h;
  h.update(block);
  std::copy_n(h.chaining_value().begin(), h.chaining_value().size(),
              cv.begin());
}

template <typename H>
void derive(ByteView key, Words& inner, Words& outer) {
  std::array<uint8_t, H::kBlockSize> k{};
  if (key.size() > H::kBlockSize) {
    H h;
    h.update(key);
    Digest hashed;
    h.finalize_into(hashed);
    std::copy_n(hashed.data(), hashed.size(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  compress_key_block<H>(k, 0x36, inner);
  compress_key_block<H>(k, 0x5c, outer);
}

template <typename H>
H resume(const Words& cv) {
  typename H::ChainingValue state;
  std::copy_n(cv.begin(), state.size(), state.begin());
  return H(state, /*blocks=*/1);
}

template <typename H>
Digest tag_with(const Words& inner, const Words& outer,
                std::initializer_list<ByteView> parts) {
  H h = resume<H>(inner);
  for (const ByteView part : parts) h.update(part);
  Digest inner_digest;
  h.finalize_into(inner_digest);
  H o = resume<H>(outer);
  o.update(inner_digest);
  Digest tag;
  o.finalize_into(tag);
  return tag;
}

}  // namespace

Hmac::Hmac(HashAlgo algo, ByteView key) : algo_(algo) {
  if (algo == HashAlgo::kSha1) {
    derive<Sha1>(key, inner_, outer_);
  } else if (algo == HashAlgo::kSha256) {
    derive<Sha256>(key, inner_, outer_);
  } else {
    throw std::invalid_argument("Hmac: hash must be SHA-1 or SHA-256");
  }
}

Digest Hmac::tag(std::initializer_list<ByteView> parts) const {
  return algo_ == HashAlgo::kSha1 ? tag_with<Sha1>(inner_, outer_, parts)
                                  : tag_with<Sha256>(inner_, outer_, parts);
}

Bytes Hmac::compute(HashAlgo algo, ByteView key, ByteView message) {
  return Hmac(algo, key).tag({message}).to_bytes();
}

}  // namespace erasmus::crypto
