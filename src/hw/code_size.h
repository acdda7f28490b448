// Attestation-executable size model (paper Table 1).
//
// The paper compiles its ROM-resident C code with msp430-gcc (SMART+) and
// builds PrAtt against the seL4 libraries (HYDRA), then reports executable
// sizes per MAC construction for on-demand attestation vs. ERASMUS. We
// cannot run msp430-gcc here, so the model is a component inventory
// calibrated to the paper's reported totals:
//
//   size = base + mac_code + (on-demand ? request_auth_code : timer_code)
//
// The inventory preserves every relationship the paper highlights:
//   * ERASMUS needs slightly LESS ROM than on-demand on SMART+ (verifier
//     authentication code is dropped; a small timer hook is added);
//   * ERASMUS is ~1% LARGER on HYDRA (the extra timer *driver* outweighs the
//     dropped auth code in the seL4 build);
//   * BLAKE2s code is much larger than SHA-256 code (unrolled G-function);
//   * the HYDRA image is dominated by the seL4 kernel + libraries.
#pragma once

#include <optional>
#include <string>

#include "crypto/mac.h"
#include "hw/factory.h"

namespace erasmus::hw {

enum class AttestMode { kOnDemand, kErasmus };

std::string to_string(AttestMode mode);

/// Component inventory for one architecture, in KB.
struct CodeSizeModel {
  double base_kb = 0;          // protocol glue, measurement loop, (HYDRA: seL4)
  double request_auth_kb = 0;  // verifier-request MAC check + freshness
  double timer_kb = 0;         // scheduling hook (SMART+) / timer driver (HYDRA)
  double mac_sha1_kb = 0;      // 0 => not built for this architecture
  double mac_sha256_kb = 0;
  double mac_blake2s_kb = 0;

  /// KB of MAC code for `algo`; nullopt if the paper does not report it.
  std::optional<double> mac_kb(crypto::MacAlgo algo) const;

  /// Total executable size; nullopt when the (arch, algo) cell is "-" in
  /// Table 1 (HMAC-SHA1 on HYDRA).
  std::optional<double> executable_kb(AttestMode mode,
                                      crypto::MacAlgo algo) const;

  /// SMART+ or HYDRA; throws std::invalid_argument for TrustLite, which
  /// has no Table 1 column.
  static const CodeSizeModel& for_arch(ArchKind arch);
};

}  // namespace erasmus::hw
