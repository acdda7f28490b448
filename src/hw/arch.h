// Security architecture models: SMART+ and HYDRA.
//
// ERASMUS layers on top of a hybrid RA security architecture that must
// guarantee (paper §3.4):
//   (1) the measurement code has *exclusive* access to the key K,
//   (2) the measurement code is non-malleable and executes atomically
//       (uninterruptible, entered at the first instruction), and
//   (3) intermediate state is cleaned up after execution.
//
// SmartPlusArch models SMART+ [Brasser et al., DAC'16]: attestation code and
// K live in ROM; hard-wired MCU access-control rules gate K and enforce
// atomic execution (interrupts disabled on entry).
//
// HydraArch models HYDRA [ElDefrawy et al.]: a formally verified microkernel
// (seL4) enforces the same rules in software. K lives in writable memory
// owned exclusively by the attestation process PrAtt, which runs as the
// first user-space process at the highest priority; secure boot checks
// kernel + PrAtt integrity at initialisation.
//
// Both expose the same ProtectedContext interface so the ERASMUS core is
// architecture-agnostic (as the paper claims: "should be equally applicable
// to other on-demand RA techniques").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "hw/memory.h"

namespace erasmus::hw {

/// Raised when software outside the protected environment touches K or
/// re-enters the atomic section.
class SecurityViolation : public std::runtime_error {
 public:
  explicit SecurityViolation(const std::string& what)
      : std::runtime_error(what) {}
};

class SecurityArch {
 public:
  /// Capability handle passed to code running inside the protected
  /// environment; the only legal way to reach K.
  class ProtectedContext {
   public:
    /// The device key K. Wiped conceptually at section exit; callers must
    /// not retain the view (enforced by the section-exit poisoning below).
    ByteView key() const;

    DeviceMemory& memory() const { return arch_.memory(); }

   private:
    friend class SecurityArch;
    explicit ProtectedContext(SecurityArch& arch) : arch_(arch) {}
    SecurityArch& arch_;
  };

  virtual ~SecurityArch() = default;

  /// Executes `fn(ProtectedContext&)` inside the protected environment: K
  /// becomes readable, memory accesses are privileged, and the section is
  /// atomic (re-entry throws). Models ROM-resident code in SMART+ / PrAtt
  /// in HYDRA. `fn` is called in place, so a section allocates nothing.
  template <typename Fn>
  void run_protected(Fn&& fn) {
    const Section section(*this);
    ProtectedContext ctx(*this);
    fn(ctx);
  }

  /// True while executing inside run_protected.
  bool in_protected() const { return in_protected_; }

  /// Reads K; throws SecurityViolation unless called from inside
  /// run_protected. ProtectedContext::key() routes here.
  ByteView key_for(const ProtectedContext&) const;

  virtual const std::string& name() const = 0;
  /// Whether the architecture can service interrupts during attestation
  /// (SMART+: no -- interrupts disabled; HYDRA: seL4 may preempt but the
  /// attestation process still runs to completion at top priority).
  virtual bool interrupts_allowed_during_measurement() const = 0;
  virtual DeviceMemory& memory() = 0;
  virtual const DeviceMemory& memory() const = 0;

 protected:
  explicit SecurityArch(Bytes key) : key_(std::move(key)) {}

  /// Architecture-specific gate evaluated at protected-section entry
  /// (HYDRA requires a successful secure boot first).
  virtual void pre_protected_check() const {}

  Bytes key_;

 private:
  /// One protected section's entry and exit. Entry refuses re-entry and
  /// applies the architecture's gate; exit revokes key access, also when
  /// the section ends by an exception (the architecture's
  /// cleanup-on-exit guarantee).
  class Section {
   public:
    explicit Section(SecurityArch& arch);
    ~Section();
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    SecurityArch& arch_;
  };

  bool in_protected_ = false;
};

/// SMART+ on an OpenMSP430-class MCU.
class SmartPlusArch final : public SecurityArch {
 public:
  /// `app_ram_bytes`: size of the attested application memory.
  /// `store_bytes`: size of the (unprotected) measurement store region.
  SmartPlusArch(Bytes key, size_t rom_bytes, size_t app_ram_bytes,
                size_t store_bytes);

  const std::string& name() const override;
  bool interrupts_allowed_during_measurement() const override {
    return false;  // SMART: interrupts disabled upon entering ROM code
  }
  DeviceMemory& memory() override { return memory_; }
  const DeviceMemory& memory() const override { return memory_; }

  RegionId rom_region() const { return rom_; }
  RegionId key_region() const { return key_region_; }
  RegionId app_region() const { return app_; }
  RegionId store_region() const { return store_; }

 private:
  DeviceMemory memory_;
  RegionId rom_;
  RegionId key_region_;
  RegionId app_;
  RegionId store_;
};

/// HYDRA on an I.MX6-class board with an MMU and seL4.
class HydraArch final : public SecurityArch {
 public:
  struct Process {
    std::string name;
    int priority;       // seL4 scheduling priority (255 = highest)
    bool spawned_by_pratt;
  };

  HydraArch(Bytes key, size_t app_ram_bytes, size_t store_bytes);

  /// Models hardware-enforced secure boot: verifies the (simulated) kernel
  /// and PrAtt images against expected digests; throws SecurityViolation on
  /// mismatch. Must be called before run_protected.
  void secure_boot();
  bool booted() const { return booted_; }

  /// Tampers with the PrAtt image, so the next secure_boot fails -- used by
  /// tests to show boot-time integrity enforcement.
  void corrupt_pratt_image();

  /// Spawns an ordinary user process (always at lower priority than PrAtt,
  /// as HYDRA requires).
  void spawn_process(std::string name, int priority);
  const std::vector<Process>& processes() const { return processes_; }

  const std::string& name() const override;
  bool interrupts_allowed_during_measurement() const override {
    return true;  // seL4 CPU exception engine handles interrupts securely
  }
  DeviceMemory& memory() override { return memory_; }
  const DeviceMemory& memory() const override { return memory_; }

  RegionId kernel_region() const { return kernel_; }
  RegionId pratt_region() const { return pratt_; }
  RegionId app_region() const { return app_; }
  RegionId store_region() const { return store_; }

 protected:
  void pre_protected_check() const override;

 private:
  DeviceMemory memory_;
  RegionId kernel_;
  RegionId pratt_;
  RegionId key_region_;
  RegionId app_;
  RegionId store_;
  // Reference digests: the shared images' own, in static storage.
  ByteView kernel_digest_;
  ByteView pratt_digest_;
  std::vector<Process> processes_;
  bool booted_ = false;
};

}  // namespace erasmus::hw
