// Tests for the audit log (longitudinal QoA record), fed by a periodic
// AttestationService over a one-entry directory and a NetworkTransport.
#include <gtest/gtest.h>

#include "attest/audit.h"
#include "attest/directory.h"
#include "attest/prover.h"
#include "attest/service.h"
#include "attest/transport.h"

namespace erasmus::attest {
namespace {

using sim::Duration;
using sim::Time;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

ServiceConfig hourly_config() {
  ServiceConfig sc;
  sc.tc = Duration::hours(1);
  sc.k = 6;
  sc.response_timeout = Duration::seconds(30);
  return sc;
}

/// One prover behind a simulated network, collected every hour by a
/// periodic service; log() is the device's audit log.
struct Rig {
  sim::EventQueue queue;
  hw::SmartPlusArch arch;
  Prover prover;
  net::Network network;
  NetworkTransport transport;
  DeviceDirectory directory;
  AttestationService service;

  Rig()
      : arch(test_key(), 4096, 2048, 32 * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<RegularScheduler>(Duration::minutes(10)),
               ProverConfig{}),
        network(queue, Duration::millis(5), /*loss=*/0.0, /*seed=*/99),
        transport(network, network.add_node({})),
        service(queue, transport, directory, hourly_config()) {
    const net::NodeId prover_node = network.add_node({});
    prover.bind(network, prover_node);
    DeviceRecord rec;
    rec.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, test_key());
    rec.set_golden(crypto::Hash::digest(
        crypto::HashAlgo::kSha256,
        arch.memory().view(arch.app_region(), true)));
    directory.add(prover_node, std::move(rec));
  }

  const AuditLog& log() const { return service.log(0); }
};

TEST(AuditLog, FirstInfectionSeenThroughPeriodicCollection) {
  Rig rig;
  rig.prover.start();
  rig.service.start();
  // Persistent malware at 3.5 h.
  rig.queue.schedule_at(Time::zero() + Duration::minutes(210), [&] {
    rig.prover.memory().write(rig.arch.app_region(), 10, bytes_of("EVIL"),
                              false);
  });
  rig.queue.run_until(Time::zero() + Duration::hours(8));

  const auto first = rig.log().first_infection_seen();
  ASSERT_TRUE(first.has_value());
  // Infection at 3.5 h; next measurement 3:40; next collection 4 h (+net).
  EXPECT_GE(first->ns(), (Time::zero() + Duration::hours(4)).ns());
  EXPECT_LT(first->ns(), (Time::zero() + Duration::hours(5)).ns());
}

TEST(AuditLog, EmpiricalQoAMatchesConfiguration) {
  Rig rig;
  rig.prover.start();
  rig.service.start();
  rig.queue.run_until(Time::zero() + Duration::hours(24) +
                      Duration::minutes(1));

  const auto qoa = rig.log().empirical_qoa();
  EXPECT_EQ(qoa.rounds, 24u);
  // T_M = 10 min; collections land just past the hour: freshness is the
  // network delay above 0 ~ up to T_M. Mean must stay below T_M.
  EXPECT_LT(qoa.mean_freshness.ns(), Duration::minutes(10).ns());
  EXPECT_NEAR(static_cast<double>(qoa.mean_collection_interval.ns()),
              static_cast<double>(Duration::hours(1).ns()),
              static_cast<double>(Duration::minutes(2).ns()));
}

TEST(AuditLog, QueriesOnEmptyLog) {
  AuditLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.first_infection_seen().has_value());
  EXPECT_FALSE(log.first_tampering_seen().has_value());
  EXPECT_DOUBLE_EQ(log.trustworthy_fraction(), 0.0);
  EXPECT_EQ(log.empirical_qoa().rounds, 0u);
}

TEST(AuditLog, FirstTamperingSeen) {
  AuditLog log;
  CollectionReport clean;
  clean.freshness = Duration::minutes(3);
  log.record(Time::zero() + Duration::hours(1), clean);
  CollectionReport tampered;
  tampered.tampering_detected = true;
  log.record(Time::zero() + Duration::hours(2), tampered);
  const auto first = log.first_tampering_seen();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->ns(), (Time::zero() + Duration::hours(2)).ns());
  EXPECT_DOUBLE_EQ(log.trustworthy_fraction(), 0.5);
}

}  // namespace
}  // namespace erasmus::attest
