// Tests for the software-update and secure-erasure flows (§1 NOTE: cases
// where real-time on-demand attestation is mandatory).
#include <gtest/gtest.h>

#include "attest/maintenance.h"

namespace erasmus::attest {
namespace {

using crypto::MacAlgo;
using sim::Duration;
using sim::Time;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

struct Rig {
  sim::EventQueue queue;
  hw::SmartPlusArch arch;
  Prover prover;
  DeviceRecord record;
  MaintenanceAuthority authority;

  Rig()
      : arch(test_key(), 4096, 2048, 16 * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<RegularScheduler>(Duration::minutes(10)),
               ProverConfig{}),
        record([&] {
          DeviceRecord r;
          r.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, test_key());
          r.set_golden(crypto::Hash::digest(
              crypto::HashAlgo::kSha256,
              arch.memory().view(arch.app_region(), true)));
          return r;
        }()),
        authority(record, queue) {}

  void run_for(Duration d) { queue.run_until(queue.now() + d); }
};

MaintenanceRequest make_update_request(Rig& rig, ByteView image) {
  MaintenanceRequest req;
  req.op = MaintenanceRequest::Op::kUpdate;
  req.treq = rig.prover.rroc().read();
  req.image.assign(image.begin(), image.end());
  const Bytes digest =
      crypto::Hash::digest(crypto::HashAlgo::kSha256, req.image);
  req.mac = crypto::Mac::compute(
      MacAlgo::kHmacSha256, test_key(),
      MaintenanceRequest::mac_input(req.op, req.treq, digest,
                                    MacAlgo::kHmacSha256));
  return req;
}

TEST(MaintenanceRequest, SerializeRoundTrips) {
  MaintenanceRequest req;
  req.op = MaintenanceRequest::Op::kUpdate;
  req.treq = 1234;
  req.image = bytes_of("firmware v2");
  req.mac = Bytes(32, 0xaa);
  const auto back = MaintenanceRequest::deserialize(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, req.op);
  EXPECT_EQ(back->treq, 1234u);
  EXPECT_EQ(back->image, req.image);
  EXPECT_EQ(back->mac, req.mac);
}

TEST(MaintenanceRequest, RejectsBadOpAndTruncation) {
  MaintenanceRequest req;
  req.op = MaintenanceRequest::Op::kErase;
  req.treq = 1;
  req.mac = Bytes(32, 1);
  Bytes wire = req.serialize();
  wire[0] = 0x7f;  // unknown op
  EXPECT_FALSE(MaintenanceRequest::deserialize(wire).has_value());
  Bytes cut(req.serialize());
  cut.pop_back();
  EXPECT_FALSE(MaintenanceRequest::deserialize(cut).has_value());
}

TEST(HandleMaintenance, AuthenticUpdateInstallsImage) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::minutes(30));

  const Bytes image = bytes_of("firmware v2.0 payload");
  const auto cost = handle_maintenance(rig.prover, make_update_request(
                                                       rig, image));
  ASSERT_TRUE(cost.has_value());
  const Bytes installed = rig.prover.memory().read(
      rig.arch.app_region(), 0, image.size(), false);
  EXPECT_EQ(installed, image);
  // Rest of the region zero-padded.
  const Bytes tail = rig.prover.memory().read(rig.arch.app_region(),
                                              image.size(), 16, false);
  EXPECT_EQ(tail, Bytes(16, 0));
}

TEST(HandleMaintenance, ForgedMacRejected) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::minutes(30));
  auto req = make_update_request(rig, bytes_of("evil firmware"));
  req.mac[0] ^= 1;
  EXPECT_FALSE(handle_maintenance(rig.prover, req).has_value());
  // Memory untouched.
  EXPECT_EQ(rig.prover.memory().read(rig.arch.app_region(), 0, 4, false),
            Bytes(4, 0));
}

TEST(HandleMaintenance, SwappedImageRejected) {
  // MAC binds the image digest: a MITM replacing the payload is caught.
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::minutes(30));
  auto req = make_update_request(rig, bytes_of("genuine firmware"));
  req.image = bytes_of("swapped firmware!");
  EXPECT_FALSE(handle_maintenance(rig.prover, req).has_value());
}

TEST(HandleMaintenance, StaleRequestRejected) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::hours(1));
  auto req = make_update_request(rig, bytes_of("fw"));
  req.treq -= 100;  // stale; MAC recomputed to match so only freshness fails
  const Bytes digest =
      crypto::Hash::digest(crypto::HashAlgo::kSha256, req.image);
  req.mac = crypto::Mac::compute(
      MacAlgo::kHmacSha256, test_key(),
      MaintenanceRequest::mac_input(req.op, req.treq, digest,
                                    MacAlgo::kHmacSha256));
  EXPECT_FALSE(handle_maintenance(rig.prover, req).has_value());
}

TEST(HandleMaintenance, OversizedImageRejected) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::minutes(30));
  const Bytes huge(4096, 0xab);  // app region is 2048
  EXPECT_FALSE(
      handle_maintenance(rig.prover, make_update_request(rig, huge))
          .has_value());
}

TEST(Authority, FullUpdateFlowRotatesGolden) {
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::minutes(30));

  const Bytes old_golden = rig.record.golden();
  const auto outcome =
      rig.authority.run_update(rig.prover, bytes_of("firmware v2"));
  EXPECT_TRUE(outcome.pre_attestation_ok);
  EXPECT_TRUE(outcome.request_accepted);
  EXPECT_TRUE(outcome.post_attestation_ok);
  EXPECT_NE(rig.record.golden(), old_golden);
  EXPECT_EQ(rig.record.golden(), outcome.new_golden_digest);
}

TEST(Authority, UpdateAbortsOnInfectedDevice) {
  // Attest-before fails -> no update is pushed onto compromised firmware.
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::minutes(30));
  rig.prover.memory().write(rig.arch.app_region(), 50, bytes_of("MALWARE"),
                            false);
  const auto outcome =
      rig.authority.run_update(rig.prover, bytes_of("firmware v2"));
  EXPECT_FALSE(outcome.pre_attestation_ok);
  EXPECT_FALSE(outcome.request_accepted);
}

TEST(Authority, PostUpdateHistoryStillVerifies) {
  // Measurements taken BEFORE the update must verify against the old
  // golden epoch -- no false infections after a legitimate update.
  Rig rig;
  rig.prover.start();
  const uint64_t t0 =
      rig.prover.scheduler().next_interval(0) / Duration::seconds(1);
  rig.record.scheduler = &rig.prover.scheduler();
  rig.record.schedule_t0 = t0;
  rig.run_for(Duration::minutes(45));  // measurements at 10..40 min

  ASSERT_TRUE(rig.authority.run_update(rig.prover, bytes_of("fw v2"))
                  .post_attestation_ok);
  rig.run_for(Duration::hours(1));  // post-update measurements accumulate

  const auto res = rig.prover.handle_collect(CollectRequest{10});
  const auto report =
      verify_collection(rig.record, res.response, rig.queue.now());
  EXPECT_FALSE(report.infection_detected)
      << "pre-update history must match the old epoch, post-update the new";
  EXPECT_FALSE(report.tampering_detected);
}

TEST(Authority, SecureEraseZeroisesAndProves) {
  Rig rig;
  rig.prover.start();
  rig.prover.memory().write(rig.arch.app_region(), 0,
                            bytes_of("sensitive mission data"), false);
  rig.run_for(Duration::minutes(30));

  const auto outcome = rig.authority.run_erase(rig.prover);
  EXPECT_TRUE(outcome.request_accepted);
  EXPECT_TRUE(outcome.erased_state_proven);
  EXPECT_EQ(rig.prover.memory().read(rig.arch.app_region(), 0, 2048, false),
            Bytes(2048, 0));
  // Measurement history wiped too.
  EXPECT_TRUE(rig.prover.handle_collect(CollectRequest{16})
                  .response.measurements.empty());
}

TEST(Authority, EraseLeavesKeyIntact) {
  // Secure erase clears mission data, not the RA trust anchor: a fresh
  // OD attestation (which needs K) must still work -- that is exactly how
  // erased state is proven.
  Rig rig;
  rig.prover.start();
  rig.run_for(Duration::minutes(30));
  ASSERT_TRUE(rig.authority.run_erase(rig.prover).erased_state_proven);
  rig.run_for(Duration::seconds(2));
  const OdRequest req =
      make_od_request(rig.record, rig.prover.rroc().read(), 0);
  EXPECT_TRUE(rig.prover.handle_od(req).response.has_value());
}

}  // namespace
}  // namespace erasmus::attest
