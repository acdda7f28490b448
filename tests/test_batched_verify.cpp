// The verify intake's thread pool (ServiceConfig::verify_executor) must be
// a pure wall-clock optimization: verdict-for-verdict, stat-for-stat
// identical to the same intake verified on the calling thread, on a fleet
// that exercises every verdict class -- healthy, infected (authentic
// digest mismatch) and tampered (bad MACs) -- across mixed MAC algorithms
// (the intake groups work per algorithm, so the grouping must not reorder
// results).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "attest/directory.h"
#include "attest/measurement.h"
#include "attest/prover.h"
#include "attest/service.h"
#include "attest/transport.h"
#include "common/parallel.h"

namespace erasmus::attest {
namespace {

using sim::Duration;
using sim::Time;

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;
constexpr uint32_t kDevices = 12;
constexpr uint32_t kInfected = 3;  // app region scribbled mid-run
constexpr uint32_t kTampered = 7;  // verifier holds the wrong key

Bytes device_key(uint32_t id) {
  Bytes key = bytes_of("batched-verify-key-0123456789ab");
  key.push_back(static_cast<uint8_t>(id));
  return key;
}

crypto::MacAlgo algo_for(uint32_t id) {
  // Interleave algorithms by id so the per-algorithm grouping inside the
  // bulk pass genuinely permutes the work order.
  switch (id % 3) {
    case 0: return crypto::MacAlgo::kHmacSha256;
    case 1: return crypto::MacAlgo::kKeyedBlake2s;
    default: return crypto::MacAlgo::kHmacSha1;
  }
}

struct Device {
  hw::SmartPlusArch arch;
  Prover prover;

  static ProverConfig config_for(uint32_t id) {
    ProverConfig pc;
    pc.algo = algo_for(id);
    return pc;
  }

  Device(sim::EventQueue& queue, uint32_t id)
      : arch(device_key(id), 4096, 2048, 32 * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<RegularScheduler>(Duration::minutes(10)),
               config_for(id)) {}
};

/// One complete fleet + service, verified serially or on a pool.
struct Rig {
  sim::EventQueue queue;
  std::vector<std::unique_ptr<Device>> devices;
  DeviceDirectory directory;
  DirectTransport transport;
  std::unique_ptr<AttestationService> service;

  explicit Rig(common::ParallelExecutor* verify_executor) {
    for (uint32_t id = 0; id < kDevices; ++id) {
      devices.push_back(std::make_unique<Device>(queue, id));
      DeviceRecord rec;
      rec.key = crypto::MacKey(
          algo_for(id), id == kTampered ? device_key(200) : device_key(id));
      rec.set_golden(crypto::Hash::digest(
          hash_for(algo_for(id)),  // H is paired with the MAC construction
          devices[id]->arch.memory().view(devices[id]->arch.app_region(),
                                          /*privileged=*/true)));
      directory.add(id, rec);
      transport.attach(id, devices[id]->prover);
      devices[id]->prover.start();
    }
    // Device kInfected is compromised mid-run: later self-measurements
    // carry the wrong digest (authentic MAC, infected verdict).
    queue.schedule_at(Time::zero() + Duration::minutes(12), [this] {
      devices[kInfected]->prover.memory().write(
          devices[kInfected]->arch.app_region(), 7, bytes_of("EVIL"), false);
    });
    ServiceConfig sc;
    sc.verify_executor = verify_executor;
    service = std::make_unique<AttestationService>(queue, transport,
                                                   directory, sc);
    queue.run_until(Time::zero() + Duration::minutes(45));
  }

  std::vector<AttestationService::SessionOutcome> collect() {
    std::vector<DeviceId> ids(kDevices);
    for (DeviceId id = 0; id < kDevices; ++id) ids[id] = id;
    return service->collect_now(ids, /*k=*/4);
  }
};

void expect_equivalent(
    const std::vector<AttestationService::SessionOutcome>& serial_out,
    const std::vector<AttestationService::SessionOutcome>& batched_out) {
  ASSERT_EQ(serial_out.size(), batched_out.size());
  for (size_t i = 0; i < serial_out.size(); ++i) {
    const auto& a = serial_out[i];
    const auto& b = batched_out[i];
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.reachable, b.reachable);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.report.infection_detected, b.report.infection_detected);
    EXPECT_EQ(a.report.tampering_detected, b.report.tampering_detected);
    EXPECT_EQ(a.report.missing, b.report.missing);
    EXPECT_EQ(a.report.freshness.has_value(), b.report.freshness.has_value());
    if (a.report.freshness && b.report.freshness) {
      EXPECT_EQ(a.report.freshness->ns(), b.report.freshness->ns());
    }
    ASSERT_EQ(a.report.verdicts.size(), b.report.verdicts.size());
    for (size_t v = 0; v < a.report.verdicts.size(); ++v) {
      EXPECT_EQ(a.report.verdicts[v].status, b.report.verdicts[v].status);
      EXPECT_EQ(a.report.verdicts[v].m.timestamp,
                b.report.verdicts[v].m.timestamp);
    }
  }
}

TEST(BatchedVerify, PoolMatchesSerialVerdictsOnMixedFleet) {
  Rig serial_rig(nullptr);
  common::ParallelExecutor executor(4);
  Rig batched_rig(&executor);

  const auto serial_out = serial_rig.collect();
  const auto batched_out = batched_rig.collect();

  // The fleet actually exercises all three verdict classes.
  ASSERT_EQ(serial_out.size(), kDevices);
  EXPECT_TRUE(serial_out[kInfected].report.infection_detected);
  EXPECT_TRUE(serial_out[kTampered].report.tampering_detected);
  size_t healthy = 0;
  for (const auto& o : serial_out) {
    healthy += o.report.device_trustworthy() ? 1 : 0;
  }
  EXPECT_EQ(healthy, kDevices - 2);

  expect_equivalent(serial_out, batched_out);

  // Service-level accounting is identical too.
  EXPECT_EQ(serial_rig.service->stats().sessions,
            batched_rig.service->stats().sessions);
  EXPECT_EQ(serial_rig.service->stats().responses,
            batched_rig.service->stats().responses);
  EXPECT_EQ(serial_rig.service->stats().retries,
            batched_rig.service->stats().retries);
  EXPECT_EQ(serial_rig.service->stats().stray_datagrams,
            batched_rig.service->stats().stray_datagrams);
  EXPECT_EQ(serial_rig.service->stats().unreachable_sessions,
            batched_rig.service->stats().unreachable_sessions);
  for (DeviceId id = 0; id < kDevices; ++id) {
    ASSERT_EQ(serial_rig.service->log(id).size(),
              batched_rig.service->log(id).size());
    EXPECT_EQ(serial_rig.service->log(id).trustworthy_fraction(),
              batched_rig.service->log(id).trustworthy_fraction());
  }
}

TEST(BatchedVerify, SecondRoundReusesTheIntakeCleanly) {
  // Two consecutive rounds through the same batched service: the intake
  // buffer must fully reset between rounds (a leak would duplicate
  // completions or leave sessions wedged).
  common::ParallelExecutor executor(2);
  Rig rig(&executor);

  const auto first = rig.collect();
  ASSERT_EQ(first.size(), kDevices);
  rig.queue.run_until(rig.queue.now() + Duration::minutes(30));
  const auto second = rig.collect();
  ASSERT_EQ(second.size(), kDevices);
  EXPECT_EQ(rig.service->stats().sessions, 2u * kDevices);
  EXPECT_EQ(rig.service->stats().responses, 2u * kDevices);
  EXPECT_TRUE(second[kInfected].report.infection_detected);
  EXPECT_TRUE(second[kTampered].report.tampering_detected);
  size_t healthy = 0;
  for (const auto& o : second) {
    healthy += o.report.device_trustworthy() ? 1 : 0;
  }
  EXPECT_EQ(healthy, kDevices - 2);
}

}  // namespace
}  // namespace erasmus::attest
