// Tests for the SMART+ and HYDRA security-architecture models: the three
// §3.4 guarantees (exclusive key access, atomic execution, cleanup) plus
// HYDRA's secure boot and process-priority rules, and the shared firmware
// images both map.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/hex.h"
#include "crypto/hash.h"
#include "hw/arch.h"

namespace erasmus::hw {
namespace {

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

std::string sha256_hex(ByteView data) {
  return to_hex(crypto::Hash::digest(crypto::HashAlgo::kSha256, data));
}

SmartPlusArch make_smart() {
  return SmartPlusArch(test_key(), /*rom_bytes=*/4096,
                       /*app_ram_bytes=*/1024, /*store_bytes=*/512);
}

TEST(SmartPlus, KeyReadableOnlyInsideProtectedCode) {
  auto arch = make_smart();
  Bytes seen;
  arch.run_protected([&](SecurityArch::ProtectedContext& ctx) {
    const ByteView k = ctx.key();
    seen.assign(k.begin(), k.end());
  });
  EXPECT_EQ(seen, test_key());
}

TEST(SmartPlus, KeyAccessOutsideProtectedThrows) {
  auto arch = make_smart();
  // Smuggle a copy of the capability out of the protected section and use
  // it later: the architecture revokes access at section exit.
  std::optional<SecurityArch::ProtectedContext> leaked;
  arch.run_protected(
      [&](SecurityArch::ProtectedContext& ctx) { leaked.emplace(ctx); });
  ASSERT_TRUE(leaked.has_value());
  EXPECT_THROW((void)leaked->key(), SecurityViolation);
}

TEST(SmartPlus, AtomicSectionIsNotReentrant) {
  auto arch = make_smart();
  EXPECT_THROW(
      arch.run_protected([&](SecurityArch::ProtectedContext&) {
        arch.run_protected([](SecurityArch::ProtectedContext&) {});
      }),
      SecurityViolation);
}

TEST(SmartPlus, ProtectedFlagClearedOnException) {
  auto arch = make_smart();
  EXPECT_THROW(arch.run_protected([](SecurityArch::ProtectedContext&) {
    throw std::runtime_error("fault inside attestation code");
  }),
               std::runtime_error);
  EXPECT_FALSE(arch.in_protected());
  // Architecture is reusable afterwards (cleanup guarantee).
  EXPECT_NO_THROW(
      arch.run_protected([](SecurityArch::ProtectedContext&) {}));
}

TEST(SmartPlus, InterruptsDisabledDuringMeasurement) {
  auto arch = make_smart();
  EXPECT_FALSE(arch.interrupts_allowed_during_measurement());
  EXPECT_EQ(arch.name(), "SMART+");
}

TEST(SmartPlus, MemoryRegionsFollowFig5) {
  auto arch = make_smart();
  auto& mem = arch.memory();
  // ROM: read-only for everyone.
  EXPECT_THROW(mem.write(arch.rom_region(), 0, Bytes{1}, false),
               AccessViolation);
  // K: invisible to normal software.
  EXPECT_THROW(mem.read(arch.key_region(), 0, 1, false), AccessViolation);
  // App RAM and the measurement store: unprotected.
  EXPECT_NO_THROW(mem.write(arch.app_region(), 0, Bytes{1}, false));
  EXPECT_NO_THROW(mem.write(arch.store_region(), 0, Bytes{1}, false));
}

TEST(SmartPlus, RomImageIsNonTrivial) {
  auto arch = make_smart();
  const Bytes rom = arch.memory().read(arch.rom_region(), 0, 64, false);
  EXPECT_NE(rom, Bytes(64, 0)) << "ROM should contain a burned-in image";
}

TEST(Hydra, RequiresSecureBootBeforeAttestation) {
  HydraArch arch(test_key(), 1024, 512);
  EXPECT_THROW(
      arch.run_protected([](SecurityArch::ProtectedContext&) {}),
      SecurityViolation);
  arch.secure_boot();
  EXPECT_NO_THROW(
      arch.run_protected([](SecurityArch::ProtectedContext&) {}));
}

TEST(Hydra, SecureBootDetectsCorruptedPrAtt) {
  HydraArch arch(test_key(), 1024, 512);
  arch.secure_boot();
  arch.corrupt_pratt_image();
  EXPECT_THROW(arch.secure_boot(), SecurityViolation);
  EXPECT_THROW(
      arch.run_protected([](SecurityArch::ProtectedContext&) {}),
      SecurityViolation);
}

TEST(Hydra, PrAttIsInitialTopPriorityProcess) {
  HydraArch arch(test_key(), 1024, 512);
  ASSERT_FALSE(arch.processes().empty());
  EXPECT_EQ(arch.processes().front().name, "pratt");
  EXPECT_EQ(arch.processes().front().priority, 255);
  EXPECT_FALSE(arch.processes().front().spawned_by_pratt);
}

TEST(Hydra, UserProcessesMustRunBelowPrAtt) {
  HydraArch arch(test_key(), 1024, 512);
  arch.spawn_process("sensor-app", 100);
  EXPECT_EQ(arch.processes().size(), 2u);
  EXPECT_TRUE(arch.processes().back().spawned_by_pratt);
  EXPECT_THROW(arch.spawn_process("evil", 255), SecurityViolation);
  EXPECT_THROW(arch.spawn_process("evil", 300), SecurityViolation);
}

TEST(Hydra, InterruptsAllowedUnderSeL4) {
  HydraArch arch(test_key(), 1024, 512);
  EXPECT_TRUE(arch.interrupts_allowed_during_measurement());
  EXPECT_EQ(arch.name(), "HYDRA");
}

TEST(Hydra, KernelAndPrAttImagesAreWriteProtectedFromUserland) {
  HydraArch arch(test_key(), 1024, 512);
  arch.secure_boot();
  auto& mem = arch.memory();
  EXPECT_NO_THROW(mem.read(arch.kernel_region(), 0, 16, false));
  EXPECT_THROW(mem.write(arch.kernel_region(), 0, Bytes{1}, false),
               AccessViolation);
  EXPECT_THROW(mem.write(arch.pratt_region(), 0, Bytes{1}, false),
               AccessViolation);
}

TEST(Hydra, KeyAccessWorksAfterBoot) {
  HydraArch arch(test_key(), 1024, 512);
  arch.secure_boot();
  Bytes seen;
  arch.run_protected([&](SecurityArch::ProtectedContext& ctx) {
    seen.assign(ctx.key().begin(), ctx.key().end());
  });
  EXPECT_EQ(seen, test_key());
}

TEST(Hydra, SecureBootHashesAPrivateCopy) {
  HydraArch arch(test_key(), 1024, 512);
  auto& mem = arch.memory();
  const RegionId kernel = arch.kernel_region();
  const Bytes original = mem.read(kernel, 100, 1, /*privileged=*/true);
  mem.write(kernel, 100, Bytes{static_cast<uint8_t>(original[0] ^ 0x01)},
            /*privileged=*/true);
  EXPECT_EQ(nullptr, mem.shared_image(kernel));
  EXPECT_THROW(arch.secure_boot(), SecurityViolation);
  EXPECT_FALSE(arch.booted());
  // The copy now holds the image's bytes again: boot hashes it and passes.
  mem.write(kernel, 100, original, /*privileged=*/true);
  EXPECT_EQ(nullptr, mem.shared_image(kernel));
  EXPECT_NO_THROW(arch.secure_boot());
  EXPECT_TRUE(arch.booted());
}

TEST(Hydra, TamperingOneDeviceLeavesOthersBooting) {
  HydraArch before(test_key(), 1024, 512);
  HydraArch victim(test_key(), 1024, 512);
  victim.corrupt_pratt_image();
  HydraArch after(test_key(), 1024, 512);
  EXPECT_THROW(victim.secure_boot(), SecurityViolation);
  EXPECT_NO_THROW(before.secure_boot());
  EXPECT_NO_THROW(after.secure_boot());
  EXPECT_EQ(before.memory().shared_image(before.pratt_region()),
            after.memory().shared_image(after.pratt_region()));
  EXPECT_NE(after.memory().shared_image(after.pratt_region()), nullptr);
  EXPECT_NE(victim.memory().read(victim.pratt_region(), 0, 1, true),
            after.memory().read(after.pratt_region(), 0, 1, true));
}

// The images' bytes, pinned to the digests of the per-device images they
// replaced: sharing them must not change any output byte.
TEST(FirmwareImages, ContentIsPinned) {
  HydraArch hydra(test_key(), 1024, 512);
  const SmartPlusArch smart(test_key(), /*rom_bytes=*/8 * 1024, 1024, 512);
  EXPECT_EQ(sha256_hex(hydra.memory().view(hydra.kernel_region(), true)),
            "d44acfc8408690e6234b3a76e9c97ea76650698ed79ba061a17b3af0fb04f8df");
  EXPECT_EQ(sha256_hex(hydra.memory().view(hydra.pratt_region(), true)),
            "18ea8a31782baf2b3dbb686323920a29c74250a8481b90da6bf8723fa55e3792");
  EXPECT_EQ(sha256_hex(smart.memory().view(smart.rom_region(), false)),
            "47861c4e45eca1d5173edb0831cbb28212399f0dd2a72164ba6fe40faaf1ec7e");
}

// Builds from several threads at once, as a parallel fleet build would. The
// ROM sizes appear in no other test, so their images are first built under
// contention.
TEST(FirmwareImages, ConcurrentBuildsMapOneImagePerTagAndSize) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  constexpr size_t kRomSizes[] = {3 * 1024, 5 * 1024};
  std::vector<std::vector<std::unique_ptr<HydraArch>>> hydras(kThreads);
  std::vector<std::vector<std::unique_ptr<SmartPlusArch>>> smarts(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          auto hydra = std::make_unique<HydraArch>(test_key(), 1024, 512);
          hydra->secure_boot();
          hydra->run_protected([](SecurityArch::ProtectedContext&) {});
          hydras[t].push_back(std::move(hydra));
          auto smart = std::make_unique<SmartPlusArch>(
              test_key(), kRomSizes[(t + i) % 2], 1024, 512);
          smart->run_protected([](SecurityArch::ProtectedContext&) {});
          smarts[t].push_back(std::move(smart));
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  std::set<const uint8_t*> kernels;
  std::set<const uint8_t*> pratts;
  for (const auto& per_thread : hydras) {
    for (const auto& h : per_thread) {
      EXPECT_TRUE(h->booted());
      kernels.insert(h->memory().view(h->kernel_region(), true).data());
      pratts.insert(h->memory().view(h->pratt_region(), true).data());
    }
  }
  std::set<std::pair<size_t, const uint8_t*>> roms;
  for (const auto& per_thread : smarts) {
    for (const auto& s : per_thread) {
      const ByteView rom = s->memory().view(s->rom_region(), false);
      roms.insert({rom.size(), rom.data()});
    }
  }
  EXPECT_EQ(kernels.size(), 1u);
  EXPECT_EQ(pratts.size(), 1u);
  ASSERT_EQ(roms.size(), 2u);
  EXPECT_EQ(roms.begin()->first, kRomSizes[0]);
  EXPECT_EQ(roms.rbegin()->first, kRomSizes[1]);
}

}  // namespace
}  // namespace erasmus::hw
