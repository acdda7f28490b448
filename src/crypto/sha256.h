// SHA-256 (FIPS 180-2).
//
// Primary hash for ERASMUS measurements (H(mem_t)) and for HMAC-SHA256, the
// default MAC in the paper's SMART+ and HYDRA implementations. Also backs
// the HMAC-DRBG CSPRNG used for irregular measurement intervals (paper §3.5).
//
// The compression function has two kernels: a portable one and, on x86 CPUs
// with the SHA extensions, one built on sha256rnds2/sha256msg1/sha256msg2.
// The kernel is chosen once, from CPUID, at first use; both leave the same
// state from the same input, so every digest is the same on every host.
#pragma once

#include <array>

#include "crypto/hash.h"

namespace erasmus::crypto {

class Sha256 final : public Hash {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  /// The state after whole blocks (FIPS 180-2's H).
  using ChainingValue = std::array<uint32_t, 8>;

  Sha256() { reset(); }
  /// Resumes after `blocks` whole blocks that left `cv`: HMAC compresses
  /// its padded key blocks once per key and starts every tag from the
  /// values they leave (RFC 2104 section 4).
  Sha256(const ChainingValue& cv, uint64_t blocks)
      : state_(cv), total_bytes_(blocks * kBlockSize) {}

  void update(ByteView data) override;
  void finalize_into(Digest& out) override;
  void reset() override;

  /// The chaining value; at a block boundary, what the resuming
  /// constructor takes.
  const ChainingValue& chaining_value() const { return state_; }

  size_t digest_size() const override { return kDigestSize; }
  size_t block_size() const override { return kBlockSize; }
  HashAlgo algo() const override { return HashAlgo::kSha256; }

  /// The compression kernel this process uses: "sha-ni" or "portable".
  static const char* kernel();

 private:
  ChainingValue state_{};
  std::array<uint8_t, kBlockSize> buffer_{};
  uint64_t total_bytes_ = 0;
  size_t buffer_len_ = 0;
};

namespace detail {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256Kernel = void (*)(std::array<uint32_t, 8>& state,
                              const uint8_t* data, size_t blocks);

/// The portable kernel, available everywhere.
void sha256_blocks_portable(std::array<uint32_t, 8>& state,
                            const uint8_t* data, size_t blocks);

/// The SHA-NI kernel, or null when this CPU (or architecture) lacks it.
Sha256Kernel sha256_blocks_accelerated();

}  // namespace detail

}  // namespace erasmus::crypto
