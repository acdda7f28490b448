#include "crypto/mac.h"

#include <stdexcept>

#include "crypto/sha1.h"
#include "crypto/sha256.h"


namespace erasmus::crypto {

std::string to_string(MacAlgo algo) {
  switch (algo) {
    case MacAlgo::kHmacSha1:
      return "HMAC-SHA1";
    case MacAlgo::kHmacSha256:
      return "HMAC-SHA256";
    case MacAlgo::kKeyedBlake2s:
      return "Keyed BLAKE2S";
  }
  return "unknown";
}

const std::vector<MacAlgo>& all_mac_algos() {
  static const std::vector<MacAlgo> algos = {
      MacAlgo::kHmacSha1, MacAlgo::kHmacSha256, MacAlgo::kKeyedBlake2s};
  return algos;
}

bool deprecated_for_deployment(MacAlgo algo) {
  return algo == MacAlgo::kHmacSha1;
}

namespace {

std::variant<Hmac, Blake2sMac> derive_state(MacAlgo algo, ByteView key) {
  switch (algo) {
    case MacAlgo::kHmacSha1:
      return Hmac(HashAlgo::kSha1, key);
    case MacAlgo::kHmacSha256:
      return Hmac(HashAlgo::kSha256, key);
    case MacAlgo::kKeyedBlake2s:
      return Blake2sMac(key);
  }
  throw std::invalid_argument("Mac: unknown algorithm");
}

// What a default Mac copies, so default-constructed records do not
// re-derive the same state.
const Mac& empty_key_mac() {
  static const Mac empty(MacAlgo::kHmacSha256, {});
  return empty;
}

}  // namespace

Mac::Mac() : Mac(empty_key_mac()) {}

Mac::Mac(MacAlgo algo, ByteView key)
    : algo_(algo), state_(derive_state(algo, key)) {}

size_t Mac::tag_size() const {
  switch (algo_) {
    case MacAlgo::kHmacSha1:
      return Sha1::kDigestSize;
    case MacAlgo::kHmacSha256:
      return Sha256::kDigestSize;
    case MacAlgo::kKeyedBlake2s:
      return Blake2s::kMaxDigestSize;
  }
  return 0;
}

Digest Mac::tag(std::initializer_list<ByteView> parts) const {
  return std::visit([parts](const auto& s) { return s.tag(parts); }, state_);
}

bool Mac::verify(std::initializer_list<ByteView> parts, ByteView tag) const {
  return ct_equal(this->tag(parts), tag);
}

Bytes Mac::compute(MacAlgo algo, ByteView key, ByteView message) {
  return Mac(algo, key).tag({message}).to_bytes();
}

bool Mac::verify(MacAlgo algo, ByteView key, ByteView message, ByteView tag) {
  return Mac(algo, key).verify({message}, tag);
}

bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace erasmus::crypto
