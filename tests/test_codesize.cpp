// Tests pinning the code-size model to the paper's Table 1 and the
// synthesis model to §4.1's register/LUT counts.
#include <gtest/gtest.h>

#include "hw/code_size.h"
#include "hw/synthesis.h"

namespace erasmus::hw {
namespace {

using crypto::MacAlgo;

double kb(ArchKind arch, AttestMode mode, MacAlgo algo) {
  const auto v = CodeSizeModel::for_arch(arch).executable_kb(mode, algo);
  EXPECT_TRUE(v.has_value());
  return v.value_or(0);
}

TEST(Table1, SmartPlusColumnExact) {
  // Paper Table 1, SMART+ column (KB).
  EXPECT_NEAR(kb(ArchKind::kSmartPlus, AttestMode::kOnDemand,
                 MacAlgo::kHmacSha1), 4.9, 1e-9);
  EXPECT_NEAR(kb(ArchKind::kSmartPlus, AttestMode::kErasmus,
                 MacAlgo::kHmacSha1), 4.7, 1e-9);
  EXPECT_NEAR(kb(ArchKind::kSmartPlus, AttestMode::kOnDemand,
                 MacAlgo::kHmacSha256), 5.1, 1e-9);
  EXPECT_NEAR(kb(ArchKind::kSmartPlus, AttestMode::kErasmus,
                 MacAlgo::kHmacSha256), 4.9, 1e-9);
  EXPECT_NEAR(kb(ArchKind::kSmartPlus, AttestMode::kOnDemand,
                 MacAlgo::kKeyedBlake2s), 28.9, 1e-9);
  EXPECT_NEAR(kb(ArchKind::kSmartPlus, AttestMode::kErasmus,
                 MacAlgo::kKeyedBlake2s), 28.7, 1e-9);
}

TEST(Table1, HydraColumnExact) {
  EXPECT_NEAR(kb(ArchKind::kHydra, AttestMode::kOnDemand,
                 MacAlgo::kHmacSha256), 231.96, 1e-9);
  EXPECT_NEAR(kb(ArchKind::kHydra, AttestMode::kErasmus,
                 MacAlgo::kHmacSha256), 233.84, 1e-9);
  EXPECT_NEAR(kb(ArchKind::kHydra, AttestMode::kOnDemand,
                 MacAlgo::kKeyedBlake2s), 239.29, 1e-9);
  EXPECT_NEAR(kb(ArchKind::kHydra, AttestMode::kErasmus,
                 MacAlgo::kKeyedBlake2s), 241.17, 1e-9);
}

TEST(Table1, HydraSha1CellIsDash) {
  // Table 1 reports "-" for HMAC-SHA1 on HYDRA.
  EXPECT_FALSE(CodeSizeModel::for_arch(ArchKind::kHydra)
                   .executable_kb(AttestMode::kOnDemand, MacAlgo::kHmacSha1)
                   .has_value());
}

TEST(Table1, ErasmusSmallerThanOnDemandOnSmartPlus) {
  // The paper: "ERASMUS requires slightly less ROM than on-demand."
  for (auto algo : crypto::all_mac_algos()) {
    EXPECT_LT(kb(ArchKind::kSmartPlus, AttestMode::kErasmus, algo),
              kb(ArchKind::kSmartPlus, AttestMode::kOnDemand, algo));
  }
}

TEST(Table1, ErasmusAboutOnePercentLargerOnHydra) {
  // The paper: "ERASMUS is only about 1% higher ... mostly from the need
  // for an additional timer driver."
  for (auto algo : {MacAlgo::kHmacSha256, MacAlgo::kKeyedBlake2s}) {
    const double od = kb(ArchKind::kHydra, AttestMode::kOnDemand, algo);
    const double er = kb(ArchKind::kHydra, AttestMode::kErasmus, algo);
    const double pct = 100.0 * (er - od) / od;
    EXPECT_GT(pct, 0.0);
    EXPECT_LT(pct, 1.5);
  }
}

TEST(Table1, Blake2sCodeMuchLargerThanSha256) {
  const auto& smart = CodeSizeModel::for_arch(ArchKind::kSmartPlus);
  EXPECT_GT(smart.mac_kb(MacAlgo::kKeyedBlake2s).value(),
            5 * smart.mac_kb(MacAlgo::kHmacSha256).value());
}

TEST(Table1, HydraDominatedBySeL4Base) {
  const auto& hydra = CodeSizeModel::for_arch(ArchKind::kHydra);
  EXPECT_GT(hydra.base_kb, 200.0);
  EXPECT_GT(hydra.base_kb /
                kb(ArchKind::kHydra, AttestMode::kOnDemand,
                   MacAlgo::kHmacSha256),
            0.9);
}

TEST(Table1, TrustLiteHasNoColumn) {
  // Table 1 reports SMART+ and HYDRA only.
  EXPECT_THROW(CodeSizeModel::for_arch(ArchKind::kTrustLite),
               std::invalid_argument);
}

TEST(Table1, Labels) {
  EXPECT_EQ(to_string(AttestMode::kOnDemand), "On-Demand");
  EXPECT_EQ(to_string(AttestMode::kErasmus), "ERASMUS");
}

TEST(Synthesis, MatchesPaperCounts) {
  // §4.1: 655 vs 579 registers, 1969 vs 1731 LUTs.
  EXPECT_EQ(unmodified_msp430().registers, 579);
  EXPECT_EQ(unmodified_msp430().luts, 1731);
  EXPECT_EQ(modified_msp430().registers, 655);
  EXPECT_EQ(modified_msp430().luts, 1969);
}

TEST(Synthesis, OverheadPercentagesMatchPaper) {
  // "roughly 13% and 14% additional registers and look-up tables".
  EXPECT_NEAR(register_overhead_pct(), 13.0, 0.5);
  EXPECT_NEAR(lut_overhead_pct(), 14.0, 0.5);
}

TEST(Synthesis, RrocDominatesRegisterCost) {
  // The 64-bit RROC register is the single largest register addition.
  int rroc_regs = 0, total_regs = 0;
  for (const auto& c : smartplus_additions()) {
    total_regs += c.cost.registers;
    if (c.name.find("rroc") != std::string::npos) {
      rroc_regs = c.cost.registers;
    }
  }
  EXPECT_EQ(rroc_regs, 64);
  EXPECT_GT(rroc_regs * 2, total_regs);
}

TEST(Synthesis, ComponentsSumToTotal) {
  int regs = unmodified_msp430().registers;
  int luts = unmodified_msp430().luts;
  for (const auto& c : smartplus_additions()) {
    regs += c.cost.registers;
    luts += c.cost.luts;
  }
  EXPECT_EQ(regs, modified_msp430().registers);
  EXPECT_EQ(luts, modified_msp430().luts);
}

}  // namespace
}  // namespace erasmus::hw
