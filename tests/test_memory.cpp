// Tests for the access-controlled device memory model (Fig. 5 / Fig. 7
// memory organisation and access rules).
#include <gtest/gtest.h>

#include <cstdint>

#include "hw/memory.h"

namespace erasmus::hw {
namespace {

TEST(DeviceMemory, RegionsAreZeroInitialised) {
  DeviceMemory mem;
  const RegionId app = mem.add_region("app", 16, policy::kAppRam);
  EXPECT_EQ(mem.read(app, 0, 16, false), Bytes(16, 0));
}

TEST(DeviceMemory, AppRamReadWriteForEveryone) {
  DeviceMemory mem;
  const RegionId app = mem.add_region("app", 8, policy::kAppRam);
  mem.write(app, 2, Bytes{0xaa, 0xbb}, /*privileged=*/false);
  EXPECT_EQ(mem.read(app, 2, 2, /*privileged=*/false), (Bytes{0xaa, 0xbb}));
  EXPECT_EQ(mem.read(app, 2, 2, /*privileged=*/true), (Bytes{0xaa, 0xbb}));
}

TEST(DeviceMemory, RomIsWriteProtectedEvenForPrivileged) {
  DeviceMemory mem;
  const RegionId rom = mem.add_region("rom", 8, policy::kRom);
  EXPECT_THROW(mem.write(rom, 0, Bytes{1}, false), AccessViolation);
  EXPECT_THROW(mem.write(rom, 0, Bytes{1}, true), AccessViolation);
  EXPECT_NO_THROW(mem.read(rom, 0, 8, false));
}

TEST(DeviceMemory, KeyRegionInvisibleToUnprivileged) {
  DeviceMemory mem;
  const RegionId key = mem.add_region("key", 32, policy::kKey);
  EXPECT_THROW(mem.read(key, 0, 32, /*privileged=*/false), AccessViolation);
  EXPECT_THROW(mem.write(key, 0, Bytes{1}, /*privileged=*/false),
               AccessViolation);
  EXPECT_NO_THROW(mem.read(key, 0, 32, /*privileged=*/true));
  // Even privileged code cannot overwrite K (provisioned at manufacture).
  EXPECT_THROW(mem.write(key, 0, Bytes{1}, /*privileged=*/true),
               AccessViolation);
}

TEST(DeviceMemory, MeasurementStoreIsDeliberatelyUnprotected) {
  // §3.2: malware may modify/reorder/delete measurements; protection is
  // unnecessary because tampering is self-incriminating.
  DeviceMemory mem;
  const RegionId store = mem.add_region("store", 64,
                                        policy::kMeasurementStore);
  EXPECT_NO_THROW(mem.write(store, 0, Bytes{0xff}, /*privileged=*/false));
  EXPECT_NO_THROW(mem.read(store, 0, 1, /*privileged=*/false));
}

TEST(DeviceMemory, ProvisionBypassesPolicyOnce) {
  DeviceMemory mem;
  const RegionId key = mem.add_region("key", 4, policy::kKey);
  mem.provision(key, 0, Bytes{1, 2, 3, 4});
  EXPECT_EQ(mem.read(key, 0, 4, /*privileged=*/true), (Bytes{1, 2, 3, 4}));
}

TEST(DeviceMemory, OutOfBoundsAccessThrows) {
  static const SharedImage kImage(Bytes(8, 0x5a));
  DeviceMemory mem;
  const RegionId app = mem.add_region("app", 8, policy::kAppRam);
  const RegionId img = mem.add_image_region("img", kImage, policy::kAppRam);
  for (const RegionId r : {app, img}) {
    EXPECT_THROW(mem.read(r, 8, 1, false), AccessViolation);
    EXPECT_THROW(mem.read(r, 4, 8, false), AccessViolation);
    EXPECT_THROW(mem.write(r, 7, Bytes{1, 2}, false), AccessViolation);
    EXPECT_THROW(mem.provision(r, 8, Bytes{1}), AccessViolation);
    // Offsets near SIZE_MAX: offset + len wraps past zero, which a sum-based
    // bounds check would let through.
    EXPECT_THROW(mem.read(r, SIZE_MAX, 2, false), AccessViolation);
    EXPECT_THROW(mem.read(r, SIZE_MAX - 3, 8, true), AccessViolation);
    EXPECT_THROW(mem.write(r, SIZE_MAX, Bytes{1, 2}, false), AccessViolation);
    EXPECT_THROW(mem.provision(r, SIZE_MAX - 1, Bytes{1, 2, 3}),
                 AccessViolation);
  }
  // A rejected access never copies the image.
  EXPECT_EQ(mem.shared_image(img), &kImage);
}

TEST(DeviceMemory, BadRegionIdThrows) {
  DeviceMemory mem;
  EXPECT_THROW(mem.read(0, 0, 1, false), std::out_of_range);
  EXPECT_THROW(mem.write(3, 0, Bytes{1}, false), std::out_of_range);
  EXPECT_THROW(mem.region_size(1), std::out_of_range);
}

TEST(DeviceMemory, ViewRespectsPolicy) {
  DeviceMemory mem;
  const RegionId key = mem.add_region("key", 4, policy::kKey);
  EXPECT_THROW(mem.view(key, /*privileged=*/false), AccessViolation);
  EXPECT_EQ(mem.view(key, /*privileged=*/true).size(), 4u);
}

TEST(DeviceMemory, MetadataAccessors) {
  DeviceMemory mem;
  const RegionId a = mem.add_region("alpha", 10, policy::kAppRam);
  const RegionId b = mem.add_region("beta", 6, policy::kAppRam);
  EXPECT_EQ(mem.region_name(a), "alpha");
  EXPECT_EQ(mem.region_size(b), 6u);
  EXPECT_EQ(mem.region_count(), 2u);
  EXPECT_EQ(mem.total_size(), 16u);
}

TEST(DeviceMemory, ZeroLengthAccessAtEndIsAllowed) {
  DeviceMemory mem;
  const RegionId app = mem.add_region("app", 4, policy::kAppRam);
  EXPECT_EQ(mem.read(app, 4, 0, false), Bytes{});
  EXPECT_NO_THROW(mem.write(app, 4, Bytes{}, false));
}

TEST(DeviceMemory, ImageRegionIsSharedUntilFirstWrite) {
  static const SharedImage kImage(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  const RegionPolicy firmware{Access::kRead, Access::kReadWrite};
  DeviceMemory a;
  DeviceMemory b;
  const RegionId ra = a.add_image_region("fw", kImage, firmware);
  const RegionId rb = b.add_image_region("fw", kImage, firmware);
  const RegionId rom = a.add_image_region("rom", kImage, policy::kRom);
  EXPECT_EQ(a.shared_image(ra), &kImage);
  EXPECT_EQ(a.view(ra, true).data(), kImage.bytes().data());
  EXPECT_EQ(a.view(ra, true).data(), b.view(rb, true).data());
  EXPECT_EQ(a.read(ra, 2, 3, false), (Bytes{3, 4, 5}));
  EXPECT_EQ(a.total_size(), 16u);

  // The policy still governs a mapped region, and a denied write copies
  // nothing.
  EXPECT_THROW(a.write(ra, 0, Bytes{9}, /*privileged=*/false),
               AccessViolation);
  EXPECT_THROW(a.write(rom, 0, Bytes{9}, /*privileged=*/true),
               AccessViolation);
  EXPECT_EQ(a.shared_image(ra), &kImage);
  EXPECT_EQ(a.shared_image(rom), &kImage);

  // A view taken before the first write keeps showing the image after it.
  const ByteView before = a.view(ra, true);
  a.write(ra, 1, Bytes{0xee}, /*privileged=*/true);
  EXPECT_EQ(nullptr, a.shared_image(ra));
  EXPECT_EQ(a.read(ra, 0, 3, true), (Bytes{1, 0xee, 3}));
  EXPECT_NE(a.view(ra, true).data(), kImage.bytes().data());
  EXPECT_EQ(Bytes(before.begin(), before.end()), kImage.bytes());
  // The other memory still maps the untouched image.
  EXPECT_EQ(b.shared_image(rb), &kImage);
  EXPECT_EQ(b.view(rb, true).data(), kImage.bytes().data());

  // provision copies too, even where the run-time policy forbids writes.
  a.provision(rom, 7, Bytes{0});
  EXPECT_EQ(nullptr, a.shared_image(rom));
  EXPECT_EQ(a.read(rom, 6, 2, false), (Bytes{7, 0}));
  EXPECT_EQ(b.read(rb, 0, 8, true), (Bytes{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_THROW(a.write(rom, 0, Bytes{9}, /*privileged=*/true),
               AccessViolation);

  EXPECT_EQ(a.region_size(ra), 8u);
  EXPECT_EQ(a.region_size(rom), 8u);
  EXPECT_EQ(a.total_size(), 16u);
  EXPECT_EQ(b.total_size(), 8u);
  EXPECT_EQ(a.shared_image(a.add_region("app", 4, policy::kAppRam)),
            nullptr);
}

// Access-policy matrix, parameterised: every (policy, privilege, op) cell.
struct PolicyCase {
  RegionPolicy policy;
  bool privileged;
  bool write;
  bool allowed;
};

class PolicyMatrix : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyMatrix, EnforcesCell) {
  const auto& p = GetParam();
  DeviceMemory mem;
  const RegionId r = mem.add_region("r", 4, p.policy);
  const auto access = [&] {
    if (p.write) {
      mem.write(r, 0, Bytes{1}, p.privileged);
    } else {
      (void)mem.read(r, 0, 1, p.privileged);
    }
  };
  if (p.allowed) {
    EXPECT_NO_THROW(access());
  } else {
    EXPECT_THROW(access(), AccessViolation);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, PolicyMatrix,
    ::testing::Values(
        // ROM: read yes / write no, both privilege levels.
        PolicyCase{policy::kRom, false, false, true},
        PolicyCase{policy::kRom, false, true, false},
        PolicyCase{policy::kRom, true, false, true},
        PolicyCase{policy::kRom, true, true, false},
        // Key: unprivileged nothing; privileged read-only.
        PolicyCase{policy::kKey, false, false, false},
        PolicyCase{policy::kKey, false, true, false},
        PolicyCase{policy::kKey, true, false, true},
        PolicyCase{policy::kKey, true, true, false},
        // App RAM: everything allowed.
        PolicyCase{policy::kAppRam, false, false, true},
        PolicyCase{policy::kAppRam, false, true, true},
        PolicyCase{policy::kAppRam, true, false, true},
        PolicyCase{policy::kAppRam, true, true, true},
        // Measurement store: everything allowed (unprotected by design).
        PolicyCase{policy::kMeasurementStore, false, true, true},
        PolicyCase{policy::kMeasurementStore, false, false, true}));

}  // namespace
}  // namespace erasmus::hw
