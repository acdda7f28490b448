// MAC abstraction over the three constructions evaluated in the paper
// (Table 1): HMAC-SHA1, HMAC-SHA256 and keyed BLAKE2s.
#pragma once

#include <initializer_list>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "crypto/blake2s.h"
#include "crypto/hmac.h"

namespace erasmus::crypto {

/// Identifies a MAC construction. Wire-stable values.
enum class MacAlgo : uint8_t {
  kHmacSha1 = 1,    // comparison only; deprecated (SHAttered)
  kHmacSha256 = 2,  // paper's default
  kKeyedBlake2s = 3,
};

std::string to_string(MacAlgo algo);

/// All supported algorithms, in Table 1 order.
const std::vector<MacAlgo>& all_mac_algos();

/// True for algorithms the paper excludes from real deployments
/// (HMAC-SHA1, due to the SHA-1 collision attack).
bool deprecated_for_deployment(MacAlgo algo);

/// A MAC under one key. The constructor derives the key's state once --
/// HMAC's two chaining values, or keyed BLAKE2s's state after the key
/// block -- and every tag starts from it, with no allocation. The state is
/// immutable, so concurrent tags under one Mac are safe.
class Mac {
 public:
  /// HMAC-SHA256 under the empty key (its state is derived once per
  /// process).
  Mac();
  /// `key` is the device key K shared between Prv and Vrf.
  Mac(MacAlgo algo, ByteView key);

  MacAlgo algo() const { return algo_; }
  size_t tag_size() const;

  /// The tag over the concatenation of `parts`.
  Digest tag(std::initializer_list<ByteView> parts) const;
  /// Recomputes the tag over `parts` and compares it with `tag` in
  /// constant time.
  bool verify(std::initializer_list<ByteView> parts, ByteView tag) const;

  /// One-shot convenience.
  static Bytes compute(MacAlgo algo, ByteView key, ByteView message);
  /// Constant-time verification of `tag` over `message`.
  static bool verify(MacAlgo algo, ByteView key, ByteView message,
                     ByteView tag);

 private:
  MacAlgo algo_;
  std::variant<Hmac, Blake2sMac> state_;
};

/// A key kept with its MAC state: the raw bytes, and the Mac derived from
/// them when the key is set.
class MacKey {
 public:
  MacKey() = default;
  MacKey(MacAlgo algo, Bytes key)
      : bytes_(std::move(key)), mac_(algo, bytes_) {}

  MacAlgo algo() const { return mac_.algo(); }
  ByteView bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const Mac& mac() const { return mac_; }

 private:
  Bytes bytes_;
  Mac mac_;
};

/// Constant-time equality of two byte strings (length leak only).
bool ct_equal(ByteView a, ByteView b);

}  // namespace erasmus::crypto
