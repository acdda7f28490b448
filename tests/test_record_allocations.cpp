// Heap allocations on the kDirect record path: prover serve, response
// encode and decode, and verification. A record is one inline value and a
// record MAC starts from its key's derived state, so each step allocates at
// most its one buffer (an OD response's history is judged in place, like a
// collect response), and a record MAC, its check, and a self-measurement
// inside the protected section allocate nothing. The counts are exact and
// machine-independent. This binary replaces the global operator new with a
// counting one.
#include <gtest/gtest.h>

#include "attest/directory.h"
#include "counting_new.h"
#include "swarm/provision.h"

namespace erasmus::attest {
namespace {

using erasmus::testing::allocations_in;

constexpr uint32_t kRecords = 16;

/// One device that has taken more than kRecords measurements, and its
/// verifier record (built as a fleet builds it: no schedule attached).
struct Device {
  sim::EventQueue queue;
  swarm::DeviceStack stack;
  DeviceRecord record;

  explicit Device(crypto::MacAlgo algo) {
    swarm::DeviceSpec spec;
    spec.algo = algo;
    spec.store_slots = 32;
    spec.key = swarm::fleet_device_key(42, 0);
    stack = swarm::build_device_stack(queue, spec);
    record = swarm::build_device_record(spec, stack);
    stack.prover->start();
    queue.run_until(sim::Time::zero() +
                    swarm::nominal_tm(spec) * (kRecords + 1));
  }
};

class RecordPathAllocations
    : public ::testing::TestWithParam<crypto::MacAlgo> {};

TEST_P(RecordPathAllocations, AtMostOnePerBufferOnAHealthyCollection) {
  Device dev(GetParam());
  ASSERT_EQ(dev.record.scheduler, nullptr);
  const CollectRequest request{kRecords};

  Prover::CollectResult served;
  EXPECT_LE(allocations_in([&] {
              served = dev.stack.prover->handle_collect(request);
            }),
            1u)
      << "handle_collect";
  ASSERT_EQ(served.response.measurements.size(), kRecords);

  Bytes wire;
  EXPECT_LE(allocations_in([&] { wire = served.response.serialize(); }), 1u)
      << "CollectResponse::serialize";

  std::optional<CollectResponse> decoded;
  EXPECT_LE(allocations_in(
                [&] { decoded = CollectResponse::deserialize(wire); }),
            1u)
      << "CollectResponse::deserialize";
  ASSERT_TRUE(decoded.has_value());

  CollectionReport report;
  EXPECT_LE(allocations_in([&] {
              report = verify_collection(dev.record, *decoded,
                                         dev.queue.now(), kRecords);
            }),
            1u)
      << "verify_collection";
  EXPECT_TRUE(report.device_trustworthy()) << report.note;
  EXPECT_EQ(report.verdicts.size(), kRecords);
}

TEST_P(RecordPathAllocations, RecordMacAndItsCheckAllocateNothing) {
  Device dev(GetParam());
  const crypto::Mac& key = dev.record.key.mac();
  const Bytes memory(1024, 0x5a);

  Measurement m;
  EXPECT_EQ(allocations_in([&] { m = compute_measurement(key, memory, 7); }),
            0u)
      << "record MAC";
  bool authentic = false;
  EXPECT_EQ(allocations_in([&] { authentic = verify_measurement(key, m); }),
            0u)
      << "record MAC check";
  EXPECT_TRUE(authentic);

  const Measurement stored = *dev.stack.prover->store().get(
      dev.stack.prover->latest_index());
  MeasurementVerdict verdict;
  EXPECT_EQ(allocations_in(
                [&] { verdict = judge_measurement(dev.record, stored); }),
            0u)
      << "judge_measurement";
  EXPECT_EQ(verdict.status, MeasurementStatus::kHealthy);
}

TEST_P(RecordPathAllocations, SelfMeasurementAllocatesNothing) {
  Device dev(GetParam());
  Prover& prover = *dev.stack.prover;
  Measurement m;
  EXPECT_EQ(allocations_in([&] {
              m = compute_measurement_protected(
                  prover.arch(), GetParam(), prover.attested_region(), 9);
            }),
            0u)
      << "compute_measurement_protected";
  EXPECT_FALSE(prover.arch().in_protected());
  EXPECT_TRUE(verify_measurement(dev.record.key.mac(), m));
}

TEST_P(RecordPathAllocations, OdResponseVerifiesInPlace) {
  Device dev(GetParam());
  const uint64_t now_ticks = dev.queue.now().ns() / dev.record.tick.ns();
  const OdRequest request = make_od_request(dev.record, now_ticks, kRecords);
  const Prover::OdResult served = dev.stack.prover->handle_od(request);
  ASSERT_TRUE(served.response.has_value());
  ASSERT_EQ(served.response->history.size(), kRecords);

  OdReport report;
  EXPECT_LE(allocations_in([&] {
              report = verify_od_response(dev.record, *served.response,
                                          dev.queue.now(), request.treq);
            }),
            1u)
      << "verify_od_response: one verdict buffer, as verify_collection";
  EXPECT_TRUE(report.fresh_valid);
  EXPECT_TRUE(report.history.device_trustworthy()) << report.history.note;
  EXPECT_EQ(report.history.verdicts.size(), kRecords);
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, RecordPathAllocations,
                         ::testing::ValuesIn(crypto::all_mac_algos()));

// A fleet build's allocations per device. A key is its one buffer (the
// DRBG's input and state live on the stack); a device's app RAM maps the
// shared zero image, and its record's golden digest is read from that
// image's cache, so neither grows with the app RAM size.
TEST(FleetBuildAllocations, FleetKeyIsItsOneBuffer) {
  (void)swarm::fleet_device_key(1, 0);  // the DRBG's zero key, once
  for (DeviceId id = 0; id < 4; ++id) {
    EXPECT_EQ(allocations_in([&] { (void)swarm::fleet_device_key(42, id); }),
              1u)
        << "id " << id;
  }
}

TEST(FleetBuildAllocations, DeviceStackAndRecordPerArchitecture) {
  struct Expected {
    hw::ArchKind kind;
    size_t stack;
    size_t record;
  };
  // A record is its key's copy, the epoch list and the golden digest.
  for (const Expected& e : {Expected{hw::ArchKind::kSmartPlus, 12, 3},
                            Expected{hw::ArchKind::kHydra, 14, 3},
                            Expected{hw::ArchKind::kTrustLite, 19, 3}}) {
    for (const size_t app_ram : {size_t{1024}, size_t{64 * 1024}}) {
      sim::EventQueue queue;
      swarm::DeviceSpec spec;
      spec.arch = e.kind;
      spec.app_ram_bytes = app_ram;
      spec.key = swarm::fleet_device_key(42, 0);
      // The first build of a kind and size makes the shared images and
      // hashes the golden once.
      const swarm::DeviceStack first = swarm::build_device_stack(queue, spec);
      (void)swarm::build_device_record(spec, first);

      swarm::DeviceStack stack;
      EXPECT_EQ(allocations_in(
                    [&] { stack = swarm::build_device_stack(queue, spec); }),
                e.stack)
          << hw::to_string(e.kind) << ", app RAM " << app_ram;
      DeviceRecord record;
      EXPECT_EQ(allocations_in(
                    [&] { record = swarm::build_device_record(spec, stack); }),
                e.record)
          << hw::to_string(e.kind) << ", app RAM " << app_ram;
    }
  }
}

}  // namespace
}  // namespace erasmus::attest
