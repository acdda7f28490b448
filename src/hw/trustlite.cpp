#include "hw/trustlite.h"

namespace erasmus::hw {

TrustLiteArch::TrustLiteArch(Bytes key, size_t app_ram_bytes,
                             size_t store_bytes)
    : SecurityArch(std::move(key)) {
  // Unlike SMART+'s ROM, TrustLite keeps the attestation trustlet in flash;
  // write access is governed by the EA-MPU rather than mask ROM. The
  // DeviceMemory policies below are the *hardware floor*; the EA-MPU rule
  // table refines what each trustlet may do and is checked at protected-
  // section entry.
  // The trustlet's 8 KiB are zero-filled and never written (kRom, no
  // provision), so every device maps the shared zero image.
  code_ = memory_.add_image_region("attestation_trustlet",
                                   zero_image(8 * 1024), policy::kRom);
  key_region_ = memory_.add_region("key", key_.size(), policy::kKey);
  app_ = memory_.add_image_region("app_ram", zero_image(app_ram_bytes),
                                  policy::kAppRam);
  store_ = memory_.add_region("measurement_store", store_bytes,
                              policy::kMeasurementStore);
  memory_.provision(key_region_, 0, key_);

  // Boot-time default rules (what TyTAN's loader would install).
  program_rule(Trustlet::kAttestation, key_region_, Access::kRead);
  program_rule(Trustlet::kAttestation, app_, Access::kRead);
  program_rule(Trustlet::kAttestation, store_, Access::kReadWrite);
  program_rule(Trustlet::kApplication, key_region_, Access::kNone);
  program_rule(Trustlet::kApplication, app_, Access::kReadWrite);
  program_rule(Trustlet::kApplication, store_, Access::kReadWrite);
}

void TrustLiteArch::program_rule(Trustlet who, RegionId region,
                                 Access access) {
  if (locked_) {
    throw SecurityViolation(
        "EA-MPU: rule table is locked after secure boot (runtime "
        "reprogramming would let malware grant itself key access)");
  }
  rules_[{static_cast<uint8_t>(who), region}] = access;
}

void TrustLiteArch::lock_rules() { locked_ = true; }

Access TrustLiteArch::rule_for(Trustlet who, RegionId region) const {
  const auto it = rules_.find({static_cast<uint8_t>(who), region});
  return it == rules_.end() ? Access::kNone : it->second;
}

void TrustLiteArch::pre_protected_check() const {
  if (!locked_) {
    throw SecurityViolation(
        "EA-MPU: rules must be programmed and locked before the attestation "
        "trustlet may run");
  }
  if (rule_for(Trustlet::kAttestation, key_region_) == Access::kNone) {
    throw SecurityViolation(
        "EA-MPU: attestation trustlet lacks a key-access rule");
  }
}

const std::string& TrustLiteArch::name() const {
  static const std::string kName = "TrustLite";
  return kName;
}

}  // namespace erasmus::hw
