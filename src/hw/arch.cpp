#include "hw/arch.h"

#include <map>
#include <mutex>
#include <utility>

#include "crypto/hash.h"

namespace erasmus::hw {

namespace {

// Deterministic pseudo-content standing in for a binary image (kernel, PrAtt,
// ROM code). Content only matters for integrity digests, so a cheap LCG byte
// stream suffices. Every device of a kind holds the same image, so each
// (tag, size) is built once per process and mapped by all of them; map
// nodes never move, so the reference lives as long as the process.
const SharedImage& firmware_image(uint32_t tag, size_t size) {
  static std::mutex mu;
  static std::map<std::pair<uint32_t, size_t>, SharedImage> images;
  const std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(tag, size);
  auto it = images.find(key);
  if (it == images.end()) {
    Bytes image(size);
    uint32_t x = 0x12345678u ^ tag;
    for (auto& b : image) {
      x = x * 1664525u + 1013904223u;
      b = static_cast<uint8_t>(x >> 24);
    }
    it = images.try_emplace(key, std::move(image)).first;
  }
  return it->second;
}

}  // namespace

ByteView SecurityArch::ProtectedContext::key() const {
  return arch_.key_for(*this);
}

SecurityArch::Section::Section(SecurityArch& arch) : arch_(arch) {
  if (arch_.in_protected_) {
    throw SecurityViolation(
        "run_protected: atomic section re-entered (attestation code must "
        "run from first to last instruction)");
  }
  arch_.pre_protected_check();
  arch_.in_protected_ = true;
}

SecurityArch::Section::~Section() { arch_.in_protected_ = false; }

ByteView SecurityArch::key_for(const ProtectedContext&) const {
  if (!in_protected_) {
    throw SecurityViolation(
        "key access outside the protected attestation environment");
  }
  return key_;
}

// --- SMART+ ---------------------------------------------------------------

SmartPlusArch::SmartPlusArch(Bytes key, size_t rom_bytes, size_t app_ram_bytes,
                             size_t store_bytes)
    : SecurityArch(std::move(key)) {
  rom_ = memory_.add_image_region(
      "rom", firmware_image(/*tag=*/0x534d4152u, rom_bytes),  // "SMAR"
      policy::kRom);
  key_region_ = memory_.add_region("key", key_.size(), policy::kKey);
  app_ = memory_.add_image_region("app_ram", zero_image(app_ram_bytes),
                                  policy::kAppRam);
  store_ = memory_.add_region("measurement_store", store_bytes,
                              policy::kMeasurementStore);
  // The ROM image and K are burned in at manufacture (provision bypasses the
  // run-time policy; kRom/kKey forbid even privileged writes afterwards).
  memory_.provision(key_region_, 0, key_);
}

const std::string& SmartPlusArch::name() const {
  static const std::string kName = "SMART+";
  return kName;
}

// --- HYDRA ------------------------------------------------------------------

HydraArch::HydraArch(Bytes key, size_t app_ram_bytes, size_t store_bytes)
    : SecurityArch(std::move(key)) {
  // Sizes follow the paper's Table 1 scale: the seL4 kernel plus PrAtt image
  // is a couple hundred KB.
  const SharedImage& kernel =
      firmware_image(/*tag=*/0x73654c34u, 160 * 1024);  // "seL4"
  const SharedImage& pratt =
      firmware_image(/*tag=*/0x50724174u, 72 * 1024);  // "PrAt"
  kernel_ = memory_.add_image_region(
      "sel4_kernel", kernel, RegionPolicy{Access::kRead, Access::kReadWrite});
  pratt_ = memory_.add_image_region(
      "pratt", pratt, RegionPolicy{Access::kRead, Access::kReadWrite});
  key_region_ = memory_.add_region("key", key_.size(), policy::kKey);
  app_ = memory_.add_image_region("app_ram", zero_image(app_ram_bytes),
                                  policy::kAppRam);
  store_ = memory_.add_region("measurement_store", store_bytes,
                              policy::kMeasurementStore);
  memory_.provision(key_region_, 0, key_);
  kernel_digest_ = kernel.digest(crypto::HashAlgo::kSha256);
  pratt_digest_ = pratt.digest(crypto::HashAlgo::kSha256);

  // HYDRA: PrAtt is the initial user-space process at top priority; all
  // other processes are spawned by it at strictly lower priorities.
  processes_.push_back(Process{"pratt", 255, /*spawned_by_pratt=*/false});
}

void HydraArch::secure_boot() {
  const auto intact = [this](RegionId region, ByteView reference) {
    return equal(memory_.digest(region, crypto::HashAlgo::kSha256), reference);
  };
  if (!intact(kernel_, kernel_digest_)) {
    throw SecurityViolation("secure boot: seL4 kernel image digest mismatch");
  }
  if (!intact(pratt_, pratt_digest_)) {
    throw SecurityViolation("secure boot: PrAtt image digest mismatch");
  }
  booted_ = true;
}

void HydraArch::corrupt_pratt_image() {
  Bytes b = memory_.read(pratt_, 0, 1, /*privileged=*/true);
  b[0] ^= 0xff;
  memory_.write(pratt_, 0, b, /*privileged=*/true);
  booted_ = false;
}

void HydraArch::spawn_process(std::string name, int priority) {
  if (priority >= 255) {
    throw SecurityViolation(
        "HYDRA: user processes must run below PrAtt's priority");
  }
  processes_.push_back(Process{std::move(name), priority,
                               /*spawned_by_pratt=*/true});
}

const std::string& HydraArch::name() const {
  static const std::string kName = "HYDRA";
  return kName;
}

void HydraArch::pre_protected_check() const {
  if (!booted_) {
    throw SecurityViolation(
        "HYDRA: secure boot has not validated the kernel and PrAtt images");
  }
}

}  // namespace erasmus::hw
