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

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"

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

class DeviceMemory {
 public:
  /// Appends a region of `size` bytes (zero-initialised) and returns its id.
  RegionId add_region(std::string name, size_t size, RegionPolicy policy);

  /// Appends a region that maps `image`, an immutable image shared by every
  /// memory that maps it, and returns its id. `image` must outlive this
  /// memory (static storage). The region's first write or provision gives
  /// this memory a private copy; reads before that see the shared bytes.
  RegionId add_image_region(std::string name, const Bytes& image,
                            RegionPolicy policy);
  RegionId add_image_region(std::string, Bytes&&, RegionPolicy) = delete;

  /// True while the region still maps its shared image, i.e. holds exactly
  /// the image's bytes.
  bool maps_shared_image(RegionId region) const;

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

  size_t region_size(RegionId region) const;
  const std::string& region_name(RegionId region) const;
  size_t region_count() const { return regions_.size(); }

  /// Total bytes across all regions.
  size_t total_size() const;

 private:
  struct Region {
    std::string name;
    Bytes data;                    // private bytes
    const Bytes* image = nullptr;  // shared image, until a write/provision
    RegionPolicy policy;

    const Bytes& bytes() const { return image ? *image : data; }
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
