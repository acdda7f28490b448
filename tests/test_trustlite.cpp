// Tests for the TrustLite/TyTAN architecture model and the paper's claim
// that ERASMUS is "equally applicable" to it: the unchanged prover/verifier
// stack runs on TrustLiteArch.
#include <gtest/gtest.h>

#include <algorithm>

#include "attest/directory.h"
#include "attest/prover.h"
#include "hw/trustlite.h"
#include "malware/malware.h"

namespace erasmus {
namespace {

using attest::CollectRequest;
using attest::DeviceRecord;
using attest::Prover;
using attest::ProverConfig;
using hw::Access;
using hw::TrustLiteArch;
using sim::Duration;
using sim::Time;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

TrustLiteArch make_arch() {
  TrustLiteArch arch(test_key(), 2048, 16 * kRecordBytes);
  arch.lock_rules();
  return arch;
}

TEST(TrustLite, RuleTableLockedAfterBoot) {
  TrustLiteArch arch(test_key(), 1024, 512);
  arch.program_rule(TrustLiteArch::Trustlet::kApplication, arch.app_region(),
                    Access::kReadWrite);
  arch.lock_rules();
  EXPECT_TRUE(arch.rules_locked());
  EXPECT_THROW(arch.program_rule(TrustLiteArch::Trustlet::kApplication,
                                 arch.key_region(), Access::kRead),
               hw::SecurityViolation)
      << "runtime reprogramming is the attack the lock prevents";
}

TEST(TrustLite, ProtectedExecutionRequiresLockedRules) {
  TrustLiteArch arch(test_key(), 1024, 512);
  EXPECT_THROW(
      arch.run_protected([](hw::SecurityArch::ProtectedContext&) {}),
      hw::SecurityViolation);
  arch.lock_rules();
  EXPECT_NO_THROW(
      arch.run_protected([](hw::SecurityArch::ProtectedContext&) {}));
}

TEST(TrustLite, DefaultRulesMatchPaperFigure) {
  auto arch = make_arch();
  using T = TrustLiteArch::Trustlet;
  EXPECT_EQ(arch.rule_for(T::kAttestation, arch.key_region()), Access::kRead);
  EXPECT_EQ(arch.rule_for(T::kApplication, arch.key_region()), Access::kNone);
  EXPECT_EQ(arch.rule_for(T::kApplication, arch.store_region()),
            Access::kReadWrite)
      << "the measurement store stays unprotected, as in SMART+";
}

TEST(TrustLite, KeyIsolationIdenticalToOtherArchitectures) {
  auto arch = make_arch();
  Bytes seen;
  arch.run_protected([&](hw::SecurityArch::ProtectedContext& ctx) {
    seen.assign(ctx.key().begin(), ctx.key().end());
  });
  EXPECT_EQ(seen, test_key());
  EXPECT_THROW((void)arch.memory().read(arch.key_region(), 0, 1, false),
               hw::AccessViolation);
}

// The trustlet region is 8 KiB of zeros that no device writes: every
// device maps one shared image (DETERMINISM.md R10), and kRom still
// refuses even a privileged write.
TEST(TrustLite, TrustletMapsOneSharedZeroImage) {
  auto a = make_arch();
  auto b = make_arch();
  const hw::DeviceMemory& ma = a.memory();
  ASSERT_NE(nullptr, ma.shared_image(a.code_region()));
  ASSERT_NE(nullptr, b.memory().shared_image(b.code_region()));
  const ByteView va = ma.view(a.code_region(), /*privileged=*/true);
  EXPECT_EQ(va.data(), b.memory().view(b.code_region(), true).data());
  EXPECT_EQ(va.size(), 8u * 1024);
  EXPECT_EQ(std::count(va.begin(), va.end(), 0), 8 * 1024);
  EXPECT_THROW(a.memory().write(a.code_region(), 0, bytes_of("x"), true),
               hw::AccessViolation);
  EXPECT_NE(nullptr, ma.shared_image(a.code_region()));
}

TEST(TrustLite, InterruptsAllowedUnlikeSmartPlus) {
  auto arch = make_arch();
  EXPECT_TRUE(arch.interrupts_allowed_during_measurement());
  EXPECT_EQ(arch.name(), "TrustLite");
}

TEST(TrustLite, FullErasmusStackRunsUnchanged) {
  // The paper's applicability claim, executed: same Prover, same verifier
  // core, different architecture.
  sim::EventQueue queue;
  auto arch = make_arch();
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                ProverConfig{});
  DeviceRecord record;
  record.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, test_key());
  record.set_golden(crypto::Hash::digest(
      crypto::HashAlgo::kSha256, arch.memory().view(arch.app_region(), true)));

  prover.start();
  queue.run_until(Time::zero() + Duration::hours(1));
  EXPECT_EQ(prover.stats().measurements, 6u);
  const auto res = prover.handle_collect(CollectRequest{6});
  const auto report =
      attest::verify_collection(record, res.response, queue.now());
  EXPECT_TRUE(report.device_trustworthy());
}

TEST(TrustLite, MalwareDetectionWorksOnTrustLite) {
  sim::EventQueue queue;
  auto arch = make_arch();
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                ProverConfig{});
  DeviceRecord record;
  record.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, test_key());
  record.set_golden(crypto::Hash::digest(
      crypto::HashAlgo::kSha256, arch.memory().view(arch.app_region(), true)));

  prover.start();
  malware::MobileMalware mw(queue, prover);
  mw.schedule(Time::zero() + Duration::minutes(12), Duration::minutes(25));
  queue.run_until(Time::zero() + Duration::hours(1));

  const auto res = prover.handle_collect(CollectRequest{6});
  EXPECT_TRUE(attest::verify_collection(record, res.response, queue.now())
                  .infection_detected);
}

TEST(TrustLite, ErasmusOdWorksOnTrustLite) {
  sim::EventQueue queue;
  auto arch = make_arch();
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                ProverConfig{});
  DeviceRecord record;
  record.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, test_key());
  record.set_golden(crypto::Hash::digest(
      crypto::HashAlgo::kSha256, arch.memory().view(arch.app_region(), true)));
  prover.start();
  queue.run_until(Time::zero() + Duration::minutes(45));
  const auto req = attest::make_od_request(record, prover.rroc().read(), 3);
  const auto res = prover.handle_od(req);
  ASSERT_TRUE(res.response.has_value());
  EXPECT_TRUE(
      attest::verify_od_response(record, *res.response, queue.now(), req.treq)
          .fresh_valid);
}

}  // namespace
}  // namespace erasmus
