// Tests for the unified verifier-side stack: DeviceDirectory (+ shared
// verifier core), Transport backends, and the AttestationService session
// state machine -- multiplexed sessions, bounded dispatch window, retry /
// unreachable handling, and above all the response-path hardening: spoofed
// sources, wrong message types and undecodable payloads must be dropped
// without disturbing the session they tried to hijack.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "attest/directory.h"
#include "attest/prover.h"
#include "attest/service.h"
#include "attest/transport.h"

namespace erasmus::attest {
namespace {

using sim::Duration;
using sim::Time;

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

Bytes device_key(uint32_t id) {
  Bytes key = bytes_of("service-test-key-0123456789abcd");
  key.push_back(static_cast<uint8_t>(id));
  return key;
}

/// One real prover device plus its directory record.
struct Device {
  hw::SmartPlusArch arch;
  Prover prover;

  Device(sim::EventQueue& queue, uint32_t id,
         Duration tm = Duration::minutes(10))
      : arch(device_key(id), 4096, 2048, 32 * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<RegularScheduler>(tm), ProverConfig{}) {}

  DeviceRecord record(uint32_t id) {
    DeviceRecord rec;
    rec.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, device_key(id));
    rec.set_golden(crypto::Hash::digest(
        crypto::HashAlgo::kSha256, arch.memory().view(arch.app_region(),
                                                      /*privileged=*/true)));
    return rec;
  }
};

/// N provers behind a simulated network, one verifier endpoint.
struct NetRig {
  sim::EventQueue queue;
  net::Network network;
  net::NodeId verifier_node;
  std::vector<std::unique_ptr<Device>> devices;
  DeviceDirectory directory;
  NetworkTransport transport;

  explicit NetRig(size_t n, double loss = 0.0, uint64_t seed = 7)
      : network(queue, Duration::millis(5), loss, seed),
        verifier_node(network.add_node({})),
        transport(network, verifier_node) {
    for (size_t i = 0; i < n; ++i) {
      devices.push_back(
          std::make_unique<Device>(queue, static_cast<uint32_t>(i)));
      const net::NodeId node = network.add_node({});
      devices[i]->prover.bind(network, node);
      directory.add(node, devices[i]->record(static_cast<uint32_t>(i)));
    }
  }

  std::vector<DeviceId> all_ids() const {
    std::vector<DeviceId> ids(devices.size());
    for (DeviceId id = 0; id < devices.size(); ++id) ids[id] = id;
    return ids;
  }
};

// --- DeviceDirectory ---------------------------------------------------------

TEST(DeviceDirectory, AddAndLookup) {
  DeviceDirectory dir;
  DeviceRecord rec;
  rec.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, device_key(0));
  rec.set_golden(bytes_of("golden"));
  const DeviceId a = dir.add(10, rec);
  const DeviceId b = dir.add(11, rec);

  EXPECT_EQ(dir.size(), 2u);
  EXPECT_EQ(dir.node(a), 10u);
  EXPECT_EQ(dir.node(b), 11u);
  EXPECT_EQ(dir.by_node(10), std::optional<DeviceId>(a));
  EXPECT_EQ(dir.by_node(99), std::nullopt);

  // A record is mutable through the directory, and the reference stays
  // valid across later enrollments.
  DeviceRecord& owned = dir.owned_record(a);
  dir.add(12, rec);
  owned.rotate_golden(bytes_of("golden2"), 100);
  EXPECT_EQ(dir.record(a).golden(), bytes_of("golden2"));
  EXPECT_EQ(dir.record(b).golden(), bytes_of("golden"));
}

TEST(DeviceDirectory, RejectsInvalidEnrollment) {
  DeviceDirectory dir;
  EXPECT_THROW(dir.add(0, DeviceRecord{}), std::invalid_argument);
  DeviceRecord rec;
  rec.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, device_key(0));
  EXPECT_THROW(dir.add(0, rec), std::invalid_argument)
      << "a record without a golden epoch would be UB to judge";
  rec.set_golden(bytes_of("g"));
  dir.add(0, rec);
  EXPECT_THROW(dir.add(0, rec), std::invalid_argument)
      << "one device per endpoint";
  EXPECT_EQ(dir.size(), 1u) << "rejected enrollments leave no entry";
}

// --- DirectTransport ---------------------------------------------------------

TEST(DirectTransport, BroadcastMatchesSendLoopExactly) {
  // The real broadcast() override (decode once, single dispatch loop)
  // must be observably identical to the per-peer send() loop it
  // replaces: same deliveries, same order, same skip of unattached
  // endpoints, same last_processing semantics.
  sim::EventQueue queue;
  std::vector<std::unique_ptr<Device>> devices;
  DirectTransport via_broadcast;
  DirectTransport via_send;
  for (uint32_t id = 0; id < 3; ++id) {
    devices.push_back(std::make_unique<Device>(queue, id));
    via_broadcast.attach(id, devices[id]->prover);
    via_send.attach(id, devices[id]->prover);
  }
  for (auto& d : devices) d->prover.start();
  queue.run_until(Time::zero() + Duration::minutes(45));

  using Delivery = std::tuple<net::NodeId, MsgType, Bytes>;
  std::vector<Delivery> broadcast_log;
  std::vector<Delivery> send_log;
  via_broadcast.set_receiver(
      [&](net::NodeId src, MsgType type, ByteView body) {
        broadcast_log.emplace_back(src, type, Bytes(body.begin(), body.end()));
      });
  via_send.set_receiver([&](net::NodeId src, MsgType type, ByteView body) {
    send_log.emplace_back(src, type, Bytes(body.begin(), body.end()));
  });

  const std::vector<net::NodeId> peers = {0, 1, 2, 99};  // 99: unattached
  const Bytes body = CollectRequest{4}.serialize();
  via_broadcast.broadcast(peers, MsgType::kCollectRequest, body);
  for (const net::NodeId peer : peers) {
    via_send.send(peer, MsgType::kCollectRequest, body);
  }

  ASSERT_EQ(broadcast_log.size(), 3u) << "unknown endpoint silently skipped";
  EXPECT_EQ(broadcast_log, send_log);
  // Final peer (99) produced no reply on both paths.
  EXPECT_EQ(via_broadcast.last_processing().ns(),
            via_send.last_processing().ns());

  // A non-request type is dropped without touching any prover.
  via_broadcast.broadcast(peers, MsgType::kCollectResponse, body);
  EXPECT_EQ(broadcast_log.size(), 3u);
}

// --- Single-shot over DirectTransport ---------------------------------------

TEST(AttestationService, DirectSingleShotCompletesSynchronously) {
  sim::EventQueue queue;
  std::vector<std::unique_ptr<Device>> devices;
  DeviceDirectory directory;
  DirectTransport transport;
  for (uint32_t i = 0; i < 3; ++i) {
    devices.push_back(std::make_unique<Device>(queue, i));
    devices[i]->prover.start();
    directory.add(i, devices[i]->record(i));
    transport.attach(i, devices[i]->prover);
  }
  AttestationService service(queue, transport, directory, ServiceConfig{});
  queue.run_until(Time::zero() + Duration::minutes(35));

  const auto outcomes = service.collect_now({0, 1, 2}, /*k=*/3);
  ASSERT_EQ(outcomes.size(), 3u);
  for (DeviceId id = 0; id < 3; ++id) {
    EXPECT_EQ(outcomes[id].device, id);
    EXPECT_TRUE(outcomes[id].reachable);
    EXPECT_EQ(outcomes[id].attempts, 1);
    EXPECT_TRUE(outcomes[id].report.device_trustworthy());
    EXPECT_TRUE(outcomes[id].report.freshness.has_value());
    EXPECT_EQ(service.log(id).size(), 1u);
  }
  EXPECT_FALSE(service.round_in_progress());
  EXPECT_EQ(service.stats().responses, 3u);
  EXPECT_EQ(service.stats().retries, 0u);
}

TEST(AttestationService, DirectRoundFlagsInfectedDevice) {
  sim::EventQueue queue;
  std::vector<std::unique_ptr<Device>> devices;
  DeviceDirectory directory;
  DirectTransport transport;
  for (uint32_t i = 0; i < 2; ++i) {
    devices.push_back(std::make_unique<Device>(queue, i));
    devices[i]->prover.start();
    directory.add(i, devices[i]->record(i));
    transport.attach(i, devices[i]->prover);
  }
  AttestationService service(queue, transport, directory, ServiceConfig{});
  queue.schedule_at(Time::zero() + Duration::minutes(12), [&] {
    devices[1]->prover.memory().write(devices[1]->arch.app_region(), 7,
                                      bytes_of("EVIL"), false);
  });
  queue.run_until(Time::zero() + Duration::minutes(45));

  const auto outcomes = service.collect_now({0, 1}, /*k=*/4);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].report.device_trustworthy());
  EXPECT_TRUE(outcomes[1].report.infection_detected);
}

// --- Periodic policy over the network ----------------------------------------

TEST(AttestationService, PeriodicRoundsMultiplexTheWholeDirectory) {
  NetRig rig(4);
  for (auto& d : rig.devices) d->prover.start();
  ServiceConfig sc;
  sc.tc = Duration::hours(1);
  sc.k = 4;
  sc.response_timeout = Duration::seconds(30);
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  service.start();
  rig.queue.run_until(Time::zero() + Duration::hours(3) +
                      Duration::minutes(1));

  EXPECT_EQ(service.stats().rounds, 3u);
  EXPECT_EQ(service.stats().sessions, 12u);
  EXPECT_EQ(service.stats().responses, 12u);
  EXPECT_EQ(service.stats().unreachable_sessions, 0u);
  for (DeviceId id = 0; id < 4; ++id) {
    EXPECT_EQ(service.log(id).size(), 3u);
    EXPECT_DOUBLE_EQ(service.log(id).trustworthy_fraction(), 1.0);
  }
}

TEST(AttestationService, StopCancelsFutureRounds) {
  NetRig rig(2);
  for (auto& d : rig.devices) d->prover.start();
  ServiceConfig sc;
  sc.tc = Duration::hours(1);
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  service.start();
  rig.queue.run_until(Time::zero() + Duration::hours(1) +
                      Duration::minutes(1));
  service.stop();
  const uint64_t rounds = service.stats().rounds;
  rig.queue.run_until(Time::zero() + Duration::hours(6));
  EXPECT_EQ(service.stats().rounds, rounds);
}

// --- Loss, retries, bounded window -------------------------------------------

TEST(AttestationService, LossyFleetRecoversThroughRetries) {
  NetRig rig(20, /*loss=*/0.25, /*seed=*/99);
  for (auto& d : rig.devices) d->prover.start();
  ServiceConfig sc;
  sc.k = 4;
  sc.response_timeout = Duration::seconds(10);
  sc.max_retries = 3;
  sc.window.fixed = 4;
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));
  service.collect_now(rig.all_ids());
  rig.queue.run_until(Time::zero() + Duration::hours(1));

  const auto& stats = service.stats();
  EXPECT_EQ(stats.sessions, 20u);
  EXPECT_EQ(stats.responses + stats.unreachable_sessions, 20u);
  EXPECT_GT(stats.retries, 0u) << "25% loss must trigger retries";
  EXPECT_GT(stats.responses, 15u) << "retries recover most sessions";
  EXPECT_LE(stats.max_in_flight_seen, 4u) << "window must be respected";
  EXPECT_FALSE(service.round_in_progress());
}

TEST(AttestationService, DeadDevicesReportedUnreachable) {
  NetRig rig(3);
  // Device 1 is dead: bound handler removed, never started.
  rig.devices[0]->prover.start();
  rig.devices[2]->prover.start();
  rig.network.set_handler(rig.directory.node(1), {});
  ServiceConfig sc;
  sc.response_timeout = Duration::seconds(2);
  sc.max_retries = 2;
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));
  service.collect_now(rig.all_ids());
  rig.queue.run_until(Time::zero() + Duration::hours(1));

  EXPECT_EQ(service.stats().responses, 2u);
  EXPECT_EQ(service.stats().unreachable_sessions, 1u);
  EXPECT_EQ(service.log(1).size(), 1u);
  EXPECT_FALSE(service.log(1).entries()[0].reachable);
  EXPECT_DOUBLE_EQ(service.log(0).reachable_fraction(), 1.0);
}

TEST(AttestationService, CollectUntilAbortsWhatTheDeadlineCatches) {
  NetRig rig(3);
  // Device 1 is dead, so its session is still retrying at the deadline.
  rig.devices[0]->prover.start();
  rig.devices[2]->prover.start();
  rig.network.set_handler(rig.directory.node(1), {});
  ServiceConfig sc;
  sc.response_timeout = Duration::seconds(2);
  sc.max_retries = 2;
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));

  // Attempt 1 times out at +2 s and is retried; the +3 s deadline aborts
  // the retry before its own timeout.
  const Time deadline = rig.queue.now() + Duration::seconds(3);
  const auto outcomes = service.collect_until(rig.all_ids(), deadline);
  ASSERT_EQ(outcomes.size(), 2u) << "only the live devices completed";
  EXPECT_EQ(outcomes[0].device, 0u);
  EXPECT_EQ(outcomes[1].device, 2u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.reachable);
    EXPECT_TRUE(o.report.device_trustworthy());
  }
  EXPECT_FALSE(service.round_in_progress());
  EXPECT_EQ(service.stats().retries, 1u);
  EXPECT_EQ(service.stats().unreachable_sessions, 0u)
      << "an aborted session is not judged unreachable";
  EXPECT_EQ(service.stats().aborted_sessions, 1u)
      << "but it is counted: every session ends in exactly one outcome";
  EXPECT_EQ(service.round_stats().aborted_sessions, 1u);
  EXPECT_EQ(service.log(1).size(), 0u);
  // Nothing of the aborted round fires later.
  rig.queue.run_until(deadline + Duration::minutes(1));
  EXPECT_EQ(service.stats().retries, 1u);

  // sessions == responses + unreachable + aborted, for the round just
  // finished and over the service's lifetime.
  const auto expect_conserved = [&service] {
    const auto rs = service.round_stats();
    EXPECT_EQ(rs.sessions,
              rs.responses + rs.unreachable_sessions + rs.aborted_sessions);
    const auto& s = service.stats();
    EXPECT_EQ(s.sessions,
              s.responses + s.unreachable_sessions + s.aborted_sessions);
  };
  expect_conserved();

  // A deadline past the retry budget lets the dead device resolve as
  // unreachable, last in completion order.
  const auto full = service.collect_until(
      rig.all_ids(), rig.queue.now() + Duration::seconds(30));
  ASSERT_EQ(full.size(), 3u);
  EXPECT_EQ(full[2].device, 1u);
  EXPECT_FALSE(full[2].reachable);
  EXPECT_EQ(full[2].attempts, 3);
  EXPECT_FALSE(service.round_in_progress());
  EXPECT_EQ(service.round_stats().unreachable_sessions, 1u);
  EXPECT_EQ(service.round_stats().aborted_sessions, 0u);
  expect_conserved();

  // An explicit stop() aborts what is in flight the same way: the periodic
  // round's dead-device session is still retrying one second in.
  service.start();
  rig.queue.run_until(rig.queue.now() + sc.tc + Duration::seconds(1));
  ASSERT_TRUE(service.round_in_progress());
  service.stop();
  EXPECT_EQ(service.round_stats().sessions, 3u);
  EXPECT_EQ(service.round_stats().responses, 2u);
  EXPECT_EQ(service.round_stats().aborted_sessions, 1u);
  EXPECT_EQ(service.stats().aborted_sessions, 2u);
  expect_conserved();
}

/// A DirectTransport that runs `probe` as each broadcast returns.
struct ProbedTransport : Transport {
  DirectTransport direct;
  std::function<void()> probe;

  void send(net::NodeId peer, MsgType type, ByteView body) override {
    direct.send(peer, type, body);
  }
  void broadcast(const std::vector<net::NodeId>& peers, MsgType type,
                 ByteView body) override {
    direct.broadcast(peers, type, body);
    if (probe) probe();
  }
  void set_receiver(Receiver receiver) override {
    direct.set_receiver(std::move(receiver));
  }
  sim::Duration latency() const override { return direct.latency(); }
};

TEST(AttestationService, BroadcastRepliesCompleteAfterTheBroadcastReturns) {
  // One intake for every collect response: the replies a synchronous
  // backend delivers during a broadcast are only taken in, then completed
  // in delivery order once it returns -- with no verify executor too.
  sim::EventQueue queue;
  std::vector<std::unique_ptr<Device>> devices;
  DeviceDirectory directory;
  ProbedTransport transport;
  for (uint32_t i = 0; i < 3; ++i) {
    devices.push_back(std::make_unique<Device>(queue, i));
    devices[i]->prover.start();
    directory.add(i, devices[i]->record(i));
    transport.direct.attach(i, devices[i]->prover);
  }
  AttestationService service(queue, transport, directory, ServiceConfig{});
  queue.run_until(Time::zero() + Duration::minutes(35));

  std::vector<uint64_t> responses_at_return;
  transport.probe = [&] {
    responses_at_return.push_back(service.stats().responses);
  };
  const auto outcomes = service.collect_now({2, 0, 1}, /*k=*/3);
  EXPECT_EQ(responses_at_return, std::vector<uint64_t>{0});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].device, 2u);
  EXPECT_EQ(outcomes[1].device, 0u);
  EXPECT_EQ(outcomes[2].device, 1u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.report.device_trustworthy());
  }
  EXPECT_EQ(service.stats().responses, 3u);
  EXPECT_FALSE(service.round_in_progress());
}

// --- Response-path hardening (regression: spoofed/stray datagrams) -----------

TEST(AttestationService, SpoofedSourceCannotHijackSession) {
  NetRig rig(1);
  rig.devices[0]->prover.start();
  const net::NodeId attacker = rig.network.add_node({});
  ServiceConfig sc;
  sc.response_timeout = Duration::seconds(30);
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));

  // A forged "everything is fine"-shaped response from a node the session
  // is NOT awaiting, landing before the genuine response (the attacker is
  // 4 ms closer than the 5+5 ms round trip).
  rig.queue.schedule_at(rig.queue.now() + Duration::millis(1), [&] {
    CollectResponse forged;
    forged.measurements.push_back(compute_measurement(
        crypto::Mac(crypto::MacAlgo::kHmacSha256,
                    bytes_of("wrong-key-entirely.........")),
        bytes_of("mem"), 1));
    rig.network.send(attacker, rig.verifier_node,
                     frame(MsgType::kCollectResponse, forged.serialize()));
  });
  service.collect_now({0}, /*k=*/2);
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));

  // The forgery was counted and dropped; the genuine response (and only
  // it) completed the session.
  EXPECT_GE(service.stats().stray_datagrams, 1u);
  EXPECT_EQ(service.stats().responses, 1u);
  ASSERT_EQ(service.log(0).size(), 1u);
  EXPECT_TRUE(service.log(0).entries()[0].report.device_trustworthy())
      << "the bad-MAC forgery must not have been judged as device 0";
}

TEST(AttestationService, WrongMsgTypeFromExpectedSourceIgnored) {
  NetRig rig(1);
  rig.devices[0]->prover.start();
  const net::NodeId dev_node = rig.directory.node(0);
  ServiceConfig sc;
  sc.response_timeout = Duration::seconds(30);
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));

  // Correct source, wrong message types: a reflected request frame and an
  // OD response. Neither may complete (or kill) the collect session.
  rig.queue.schedule_at(rig.queue.now() + Duration::millis(1), [&] {
    rig.network.send(dev_node, rig.verifier_node,
                     frame(MsgType::kCollectRequest,
                           CollectRequest{2}.serialize()));
    rig.network.send(dev_node, rig.verifier_node,
                     frame(MsgType::kOdResponse, bytes_of("junk")));
  });
  service.collect_now({0}, /*k=*/2);
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));

  EXPECT_EQ(service.stats().stray_datagrams, 2u);
  EXPECT_EQ(service.stats().responses, 1u);
  ASSERT_EQ(service.log(0).size(), 1u);
  EXPECT_TRUE(service.log(0).entries()[0].reachable);
}

TEST(AttestationService, MalformedResponseBodyFallsBackToRetry) {
  NetRig rig(1);
  // Replace the prover with a byzantine endpoint answering every request
  // with a truncated CollectResponse.
  const net::NodeId dev_node = rig.directory.node(0);
  rig.network.set_handler(dev_node, [&](const net::Datagram& d) {
    Bytes valid = frame(MsgType::kCollectResponse,
                        CollectResponse{}.serialize());
    valid.pop_back();  // truncate: deserialize must fail
    rig.network.send(dev_node, d.src, std::move(valid));
  });
  ServiceConfig sc;
  sc.response_timeout = Duration::seconds(2);
  sc.max_retries = 2;
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  service.collect_now({0});
  rig.queue.run_until(Time::zero() + Duration::minutes(5));

  // Every attempt got a garbage reply: all counted stray, the session ran
  // its full retry budget and was recorded unreachable -- never crashed,
  // never accepted garbage.
  EXPECT_EQ(service.stats().stray_datagrams, 3u);
  EXPECT_EQ(service.stats().retries, 2u);
  EXPECT_EQ(service.stats().responses, 0u);
  EXPECT_EQ(service.stats().unreachable_sessions, 1u);
  ASSERT_EQ(service.log(0).size(), 1u);
  EXPECT_FALSE(service.log(0).entries()[0].reachable);
}

TEST(AttestationService, LateDuplicateResponseCountedStray) {
  NetRig rig(1, /*loss=*/0.0);
  rig.devices[0]->prover.start();
  const net::NodeId dev_node = rig.directory.node(0);
  ServiceConfig sc;
  sc.response_timeout = Duration::millis(8);  // < 10 ms round trip: timeout
  sc.max_retries = 1;                         // fires, then the retry lands
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  // An idle instant: at a T_M multiple the prover is busy measuring and
  // would delay both responses past the whole retry budget.
  rig.queue.run_until(Time::zero() + Duration::minutes(25));
  service.collect_now({0});
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));

  // Both the original and the retry response arrive; the second one finds
  // no session and is dropped as stray.
  EXPECT_EQ(service.stats().retries, 1u);
  EXPECT_EQ(service.stats().responses, 1u);
  EXPECT_EQ(service.stats().stray_datagrams, 1u);
  EXPECT_EQ(service.log(0).size(), 1u);
  (void)dev_node;
}

// --- Round admission (regression: throws must not corrupt state) -------------

TEST(AttestationService, CollectNowDuringInFlightRoundThrowsCleanly) {
  NetRig rig(3);
  for (auto& d : rig.devices) d->prover.start();
  ServiceConfig sc;
  sc.response_timeout = Duration::seconds(30);
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));

  service.collect_now(rig.all_ids());
  ASSERT_TRUE(service.round_in_progress());
  // The second round is refused BEFORE any state is touched: once the
  // first round's responses arrive they must land normally (a stale
  // sync-outcome pointer or clobbered round flag would corrupt here).
  EXPECT_THROW(service.collect_now({0}), std::logic_error);
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));

  EXPECT_FALSE(service.round_in_progress());
  EXPECT_EQ(service.stats().rounds, 1u);
  EXPECT_EQ(service.stats().responses, 3u);
  // And the service is still usable for the next round.
  rig.queue.run_until(rig.queue.now() + Duration::minutes(9));
  service.collect_now({0});
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));
  EXPECT_EQ(service.stats().responses, 4u);
}

TEST(AttestationService, DuplicateTargetRejectedBeforeDispatch) {
  NetRig rig(2);
  for (auto& d : rig.devices) d->prover.start();
  AttestationService service(rig.queue, rig.transport, rig.directory,
                             ServiceConfig{});
  rig.queue.run_until(Time::zero() + Duration::minutes(30));

  EXPECT_THROW(service.collect_now({0, 1, 0}), std::logic_error);
  // Rejected up front: nothing was dispatched, nothing is in flight, and
  // the service is not wedged mid-round.
  EXPECT_EQ(service.stats().sessions, 0u);
  EXPECT_FALSE(service.round_in_progress());
  service.collect_now({0, 1});
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));
  EXPECT_EQ(service.stats().responses, 2u);
}

TEST(AttestationService, PeriodicRoundDefersWhileSingleShotDrains) {
  NetRig rig(2);
  rig.devices[0]->prover.start();
  rig.devices[1]->prover.start();
  rig.network.set_handler(rig.directory.node(1), {});  // device 1 dead
  ServiceConfig sc;
  sc.tc = Duration::hours(1);
  sc.response_timeout = Duration::seconds(30);
  sc.max_retries = 2;
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  service.start();
  // A single-shot round issued just before the T_C timer fires is still
  // draining (the dead device burns ~90 s of retries) when the periodic
  // round comes due; the periodic round must defer, not abort the run.
  rig.queue.schedule_at(
      Time::zero() + Duration::hours(1) - Duration::seconds(10),
      [&] { service.collect_now({0, 1}); });
  rig.queue.run_until(Time::zero() + Duration::hours(2) +
                      Duration::minutes(1));

  EXPECT_FALSE(service.round_in_progress());
  EXPECT_GE(service.stats().rounds, 2u)
      << "the deferred periodic round must eventually run";
  EXPECT_EQ(service.stats().unreachable_sessions, 2u)
      << "device 1 unreachable in both the single-shot and periodic round";
}

TEST(AttestationService, StopMidRoundQuiescesImmediately) {
  NetRig rig(2);
  rig.devices[0]->prover.start();
  rig.network.set_handler(rig.directory.node(1), {});  // device 1 dead
  ServiceConfig sc;
  sc.response_timeout = Duration::seconds(5);
  sc.max_retries = 3;
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));
  service.collect_now(rig.all_ids());
  ASSERT_TRUE(service.round_in_progress());
  service.stop();  // the dead device's session is mid-retry

  // Quiescence: the round is over NOW, no retransmissions go out and no
  // unreachable verdict is recorded minutes after the caller stopped us.
  EXPECT_FALSE(service.round_in_progress());
  rig.queue.run_until(rig.queue.now() + Duration::hours(1));
  EXPECT_EQ(service.stats().retries, 0u)
      << "the dead device's session must not keep retrying after stop()";
  EXPECT_EQ(service.stats().unreachable_sessions, 0u);
  EXPECT_EQ(service.log(1).size(), 0u);
  EXPECT_EQ(service.stats().stray_datagrams, 1u)
      << "device 0's in-flight response lands after stop(): stray";
  // And a fresh round afterwards works normally.
  service.collect_now({0});
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));
  EXPECT_GE(service.stats().responses, 1u);
}

TEST(AttestationService, DestructionWithInFlightSessionsIsSafe) {
  NetRig rig(2);
  for (auto& d : rig.devices) d->prover.start();
  rig.queue.run_until(Time::zero() + Duration::minutes(30));
  {
    ServiceConfig sc;
    sc.response_timeout = Duration::seconds(5);
    AttestationService service(rig.queue, rig.transport, rig.directory, sc);
    service.start();
    service.collect_now(rig.all_ids());
  }
  // The service died with session timeouts pending, a periodic round
  // armed, and responses en route. Running on must touch none of it
  // (timeouts cancelled, transport receiver severed) -- ASan verifies.
  rig.queue.run_until(rig.queue.now() + Duration::hours(2));
}

TEST(AttestationService, LogIsEmptyNotThrowingWhenAuditOffOrUntouched) {
  NetRig rig(1);
  rig.devices[0]->prover.start();
  ServiceConfig sc;
  sc.keep_audit = false;
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  EXPECT_EQ(service.log(0).size(), 0u) << "before any round";
  rig.queue.run_until(Time::zero() + Duration::minutes(30));
  service.collect_now({0});
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));
  EXPECT_EQ(service.stats().responses, 1u);
  EXPECT_EQ(service.log(0).size(), 0u) << "audit off: log stays empty";
  EXPECT_EQ(service.log(999).size(), 0u) << "unknown id: empty, not throw";
}

// --- On-demand round kind ----------------------------------------------------

TEST(AttestationService, OnDemandRoundsAuthenticateAndVerifyFreshness) {
  sim::EventQueue queue;
  std::vector<std::unique_ptr<Device>> devices;
  DeviceDirectory directory;
  DirectTransport transport;
  for (uint32_t i = 0; i < 2; ++i) {
    devices.push_back(std::make_unique<Device>(queue, i));
    devices[i]->prover.start();
    directory.add(i, devices[i]->record(i));
    transport.attach(i, devices[i]->prover);
  }
  ServiceConfig sc;
  sc.kind = RoundKind::kOnDemand;
  AttestationService service(queue, transport, directory, sc);
  queue.run_until(Time::zero() + Duration::minutes(25));

  const auto outcomes = service.collect_now({0, 1}, /*k=*/2);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.reachable);
    EXPECT_TRUE(o.fresh_valid) << "authenticated OD must yield a fresh M_0";
    EXPECT_TRUE(o.report.device_trustworthy());
  }
  EXPECT_EQ(devices[0]->prover.stats().od_accepted, 1u);
}

// --- Per-round stats & adaptive window ---------------------------------------

TEST(AttestationService, RoundStatsArePerRoundNotPerLifetime) {
  NetRig rig(8);
  for (auto& d : rig.devices) d->prover.start();
  ServiceConfig sc;
  sc.window.fixed = 4;
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));

  service.collect_now(rig.all_ids());
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));
  EXPECT_EQ(service.round_stats().sessions, 8u);
  EXPECT_EQ(service.round_stats().responses, 8u);
  EXPECT_EQ(service.round_stats().max_in_flight, 4u);

  // A small second round: every per-round counter must restart from
  // zero. (Regression: max_in_flight_seen was only ever a lifetime
  // high-water mark, so a quiet round inherited the busiest round's
  // value.)
  service.collect_now({0, 1});
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));
  EXPECT_EQ(service.round_stats().sessions, 2u);
  EXPECT_EQ(service.round_stats().responses, 2u);
  EXPECT_LE(service.round_stats().max_in_flight, 2u);
  EXPECT_EQ(service.round_stats().window_final, 4u);

  // Lifetime stats keep accumulating alongside.
  EXPECT_EQ(service.stats().sessions, 10u);
  EXPECT_EQ(service.stats().max_in_flight_seen, 4u);
}

TEST(AttestationService, AdaptiveWindowGrowsOnCleanNetwork) {
  NetRig rig(24);
  for (auto& d : rig.devices) d->prover.start();
  ServiceConfig sc;
  sc.window = WindowSpec::parse("adaptive");
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  ASSERT_EQ(service.window(), kInitialWindow);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));

  service.collect_now(rig.all_ids());
  rig.queue.run_until(rig.queue.now() + Duration::minutes(1));
  EXPECT_EQ(service.stats().responses, 24u);
  EXPECT_EQ(service.stats().loss_backoffs, 0u);
  EXPECT_GT(service.round_stats().window_final,
            service.round_stats().window_min)
      << "loss-free responses must have grown the window";
  EXPECT_GT(service.round_stats().max_in_flight, kInitialWindow)
      << "the grown window must actually admit more sessions";
  EXPECT_EQ(service.window(), 24u)
      << "an adaptive window is capped at the directory size";
}

TEST(AttestationService, AdaptiveWindowBacksOffUnderLoss) {
  NetRig rig(30, /*loss=*/0.3, /*seed=*/17);
  for (auto& d : rig.devices) d->prover.start();
  ServiceConfig sc;
  sc.response_timeout = Duration::seconds(5);
  sc.max_retries = 3;
  sc.window = WindowSpec::parse("adaptive");
  AttestationService service(rig.queue, rig.transport, rig.directory, sc);
  rig.queue.run_until(Time::zero() + Duration::minutes(30));

  service.collect_now(rig.all_ids());
  rig.queue.run_until(rig.queue.now() + Duration::hours(1));

  const auto& rs = service.round_stats();
  EXPECT_EQ(rs.sessions, 30u);
  EXPECT_GT(service.stats().loss_backoffs, 0u)
      << "30% loss must trigger multiplicative backoff";
  EXPECT_LT(rs.window_min, kInitialWindow)
      << "backoff must have cut the window";
  EXPECT_GE(rs.window_min, kWindowFloor) << "floor must hold";
  EXPECT_EQ(service.stats().loss_backoffs, rs.loss_backoffs);
  // Retries still recover the fleet -- adaptivity must not break
  // correctness.
  EXPECT_GT(service.stats().responses, 25u);
}

}  // namespace
}  // namespace erasmus::attest
