// SHA-1 (FIPS 180-1, RFC 3174).
//
// Included because the paper's Table 1 reports HMAC-SHA1 ROM sizes "for
// comparison purposes only" (the authors exclude it from deployments due to
// the SHAttered collision). We do the same: it is available for the Table 1
// bench and for protocol tests, and MacAlgo::kHmacSha1 is flagged
// deprecated_for_deployment in the MAC registry.
#pragma once

#include <array>

#include "crypto/hash.h"

namespace erasmus::crypto {

class Sha1 final : public Hash {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = 64;

  /// The state after whole blocks (FIPS 180-1's H).
  using ChainingValue = std::array<uint32_t, 5>;

  Sha1() { reset(); }
  /// Resumes after `blocks` whole blocks that left `cv` (see Sha256).
  Sha1(const ChainingValue& cv, uint64_t blocks)
      : state_(cv), total_bytes_(blocks * kBlockSize) {}

  void update(ByteView data) override;
  void finalize_into(Digest& out) override;
  void reset() override;

  /// The chaining value; at a block boundary, what the resuming
  /// constructor takes.
  const ChainingValue& chaining_value() const { return state_; }

  size_t digest_size() const override { return kDigestSize; }
  size_t block_size() const override { return kBlockSize; }
  HashAlgo algo() const override { return HashAlgo::kSha1; }

 private:
  void process_block(const uint8_t* block);

  ChainingValue state_{};
  std::array<uint8_t, kBlockSize> buffer_{};
  uint64_t total_bytes_ = 0;
  size_t buffer_len_ = 0;
};

}  // namespace erasmus::crypto
