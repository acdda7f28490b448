// HMAC-DRBG (NIST SP 800-90A) over SHA-256.
//
// The paper's irregular-interval extension (§3.5) schedules the next
// measurement at map(CSPRNG_K(t_i)). We realise CSPRNG_K as an HMAC-DRBG
// instantiated with the device key K, so prover and verifier derive the same
// unpredictable-but-reproducible interval sequence while malware (which
// cannot read K) cannot predict it.
#pragma once

#include "common/bytes.h"
#include "crypto/hmac.h"

namespace erasmus::crypto {

class HmacDrbg {
 public:
  /// Instantiates with `seed` as entropy input (the paper seeds with K).
  /// `personalization` separates independent streams under the same key.
  explicit HmacDrbg(ByteView seed, ByteView personalization = {});

  /// Fills `out` with pseudo-random bytes.
  void generate(std::span<uint8_t> out);

  /// Writes what the first generate(out) of HmacDrbg(seed,
  /// personalization) writes, for a generator used once and discarded:
  /// it skips generate()'s closing update, which only readies state for a
  /// next request. One-shot derivations (a fleet's device keys) use it.
  static void generate_once(ByteView seed, ByteView personalization,
                            std::span<uint8_t> out);

  /// Convenience: next `n` bytes as a buffer.
  Bytes generate(size_t n);

  /// Next 64-bit value (little-endian from the stream).
  uint64_t next_u64();

  /// Uniform value in [0, bound) via rejection sampling (bound > 0).
  uint64_t next_below(uint64_t bound);

  /// Mixes additional entropy/state into the DRBG (SP 800-90A reseed).
  void reseed(ByteView input);

 private:
  /// SP 800-90A's HMAC_DRBG_Update with provided data `head || tail`.
  void update(ByteView head, ByteView tail = {});
  /// generate()'s output loop, without its closing update.
  void fill(std::span<uint8_t> out);

  Hmac key_;  // K in SP 800-90A terms (not the device key), as HMAC state
  Digest v_;
};

}  // namespace erasmus::crypto
