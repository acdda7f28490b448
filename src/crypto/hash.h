// Streaming hash-function interface.
//
// The paper evaluates three MAC constructions (HMAC-SHA1, HMAC-SHA256 and
// keyed BLAKE2s). HMAC is generic over a Merkle-Damgard hash, so we expose a
// classic init/update/final streaming interface that SHA-1 and SHA-256
// implement. BLAKE2s has native keying and implements crypto::Mac directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "crypto/digest.h"

namespace erasmus::crypto {

/// Identifies a concrete hash function.
enum class HashAlgo : uint8_t {
  kSha1 = 1,
  kSha256 = 2,
  kBlake2s = 3,
};

/// Human-readable algorithm name ("SHA-1", "SHA-256", "BLAKE2s").
std::string to_string(HashAlgo algo);

/// Streaming hash. Typical use:
///   auto h = Hash::create(HashAlgo::kSha256);
///   h->update(part1); h->update(part2);
///   Bytes digest = h->finalize();
/// finalize() resets the object so it can be reused for a new message.
class Hash {
 public:
  virtual ~Hash() = default;

  /// Absorbs `data` into the state.
  virtual void update(ByteView data) = 0;
  /// Writes the digest into `out` and resets to the initial state.
  virtual void finalize_into(Digest& out) = 0;
  /// Produces the digest as a buffer and resets to the initial state.
  Bytes finalize();
  /// Resets to the initial state, discarding absorbed data.
  virtual void reset() = 0;

  /// Digest length in bytes (20 for SHA-1, 32 for SHA-256/BLAKE2s).
  virtual size_t digest_size() const = 0;
  /// Internal block length in bytes (64 for all three).
  virtual size_t block_size() const = 0;
  virtual HashAlgo algo() const = 0;

  /// Factory for any supported algorithm.
  static std::unique_ptr<Hash> create(HashAlgo algo);

  /// One-shot digest of a single buffer into `out`; allocation-free.
  static void digest(HashAlgo algo, ByteView data, Digest& out);
  /// One-shot convenience: digest of a single buffer.
  static Bytes digest(HashAlgo algo, ByteView data);
};

}  // namespace erasmus::crypto
