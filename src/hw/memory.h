// Simulated device memory with region-level access control.
//
// Models the memory organisation of Fig. 5 (SMART+) and Fig. 7 (HYDRA):
//   * ROM holding the attestation code (read/execute only),
//   * a key region holding K, readable ONLY from protected attestation code
//     (hard-wired MCU rules in SMART+, seL4 capabilities in HYDRA),
//   * application RAM/flash, freely writable by software -- including
//     malware, and
//   * the measurement store: a windowed buffer in *unprotected* memory
//     (paper §3.2 -- tampering is detectable, so no protection is needed).
//
// Every access carries a privilege flag (inside vs. outside protected
// attestation code); violating a region policy throws AccessViolation,
// modelling the hardware fault the real MCU rules would raise.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/hash.h"

namespace erasmus::hw {

/// What a given privilege level may do with a region.
enum class Access : uint8_t {
  kNone,       // no access at all
  kRead,       // read-only
  kReadWrite,  // full access
};

/// Pair of policies: one for ordinary software (apps / malware), one for
/// code running inside the protected attestation environment.
struct RegionPolicy {
  Access unprivileged = Access::kNone;
  Access privileged = Access::kRead;
};

/// Raised when an access violates the region policy. In real hardware this
/// is a bus fault / MPU violation; HYDRA's seL4 would kill the process.
class AccessViolation : public std::runtime_error {
 public:
  explicit AccessViolation(const std::string& what)
      : std::runtime_error(what) {}
};

/// Opaque region handle.
using RegionId = size_t;

/// An immutable image that many memories map: a firmware image, or the
/// zero-filled contents of fresh RAM. Its digest under each hash algorithm
/// is computed on first request and kept beside it.
class SharedImage {
 public:
  explicit SharedImage(Bytes bytes) : bytes_(std::move(bytes)) {}

  const Bytes& bytes() const { return bytes_; }
  /// H(image) under `algo`, hashed once per image; safe from any thread.
  const crypto::Digest& digest(crypto::HashAlgo algo) const;

 private:
  Bytes bytes_;
  // By HashAlgo value - 1.
  mutable std::array<std::once_flag, 3> hashed_;
  mutable std::array<crypto::Digest, 3> digests_;
};

/// The all-zero image of `size` bytes, built once per size per process:
/// what every device's fresh RAM maps.
const SharedImage& zero_image(size_t size);

class DeviceMemory {
 public:
  /// Appends a region of `size` bytes (zero-initialised) and returns its id.
  RegionId add_region(std::string name, size_t size, RegionPolicy policy);

  /// Appends a region that maps `image`, shared by every memory that maps
  /// it, and returns its id. `image` must outlive this memory (static
  /// storage). The region's first write or provision gives this memory a
  /// private copy; reads before that see the shared bytes.
  RegionId add_image_region(std::string name, const SharedImage& image,
                            RegionPolicy policy);
  RegionId add_image_region(std::string, SharedImage&&, RegionPolicy) = delete;

  /// The image the region still maps, i.e. whose bytes it holds exactly;
  /// nullptr once it holds a private copy (or never mapped one).
  const SharedImage* shared_image(RegionId region) const;

  /// Reads `len` bytes at `offset` within the region.
  Bytes read(RegionId region, size_t offset, size_t len,
             bool privileged) const;

  /// Writes `data` at `offset` within the region.
  void write(RegionId region, size_t offset, ByteView data, bool privileged);

  /// Manufacture-time write that bypasses the run-time policy. Used to burn
  /// ROM images and provision K; never called by simulated software.
  void provision(RegionId region, size_t offset, ByteView data);

  /// Zero-copy read-only view of a whole region (policy-checked).
  ByteView view(RegionId region, bool privileged) const;

  /// H(region) under `algo`, read as privileged code: the digest cached
  /// beside the region's image while it maps one, else its private bytes
  /// hashed. Secure boot and enrolment read it; a self-measurement hashes
  /// the bytes it reads.
  crypto::Digest digest(RegionId region, crypto::HashAlgo algo) const;

  size_t region_size(RegionId region) const;
  const std::string& region_name(RegionId region) const;
  size_t region_count() const { return regions_.size(); }

  /// Total bytes across all regions.
  size_t total_size() const;

 private:
  struct Region {
    std::string name;
    Bytes data;                          // private bytes
    const SharedImage* image = nullptr;  // until a write/provision
    RegionPolicy policy;

    const Bytes& bytes() const { return image ? image->bytes() : data; }
  };

  const Region& region_at(RegionId id) const;
  Region& region_at(RegionId id);
  /// The region's private bytes, copying its shared image in first.
  static Bytes& private_bytes(Region& r);
  void check(const Region& r, bool privileged, bool write,
             size_t offset, size_t len) const;

  std::vector<Region> regions_;
};

/// Canonical region policies used throughout the library.
namespace policy {
/// ROM: everyone can read, nobody can write (immutable attestation code).
inline constexpr RegionPolicy kRom{Access::kRead, Access::kRead};
/// Key storage: invisible to ordinary software, read-only even for the
/// attestation code (K is provisioned at manufacture).
inline constexpr RegionPolicy kKey{Access::kNone, Access::kRead};
/// Application memory: fully accessible to ordinary software.
inline constexpr RegionPolicy kAppRam{Access::kReadWrite, Access::kReadWrite};
/// Measurement store: unprotected on purpose (paper §3.2).
inline constexpr RegionPolicy kMeasurementStore{Access::kReadWrite,
                                                Access::kReadWrite};
}  // namespace policy

}  // namespace erasmus::hw
