// The one serve path (attest::Prover::serve): a request gets the same
// answer whatever carried it (paper §3 Fig. 2, Fig. 4; §6's relays only
// carry that exchange).
//
// Each case's request bytes go through seven paths: Prover::serve itself,
// DirectTransport::send, DirectTransport::broadcast with batch serve on
// and off (two peers each), a Network-bound prover, and a RelayNode
// reached by a flood and by a scoped request. Every path serves its own
// identically built device at the same instant, so the reply type, bytes
// and processing time, and the Prover::Stats left behind, must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "attest/prover.h"
#include "attest/transport.h"
#include "common/parallel.h"
#include "crypto/mac.h"
#include "overlay/relay_node.h"
#include "overlay/wire.h"

namespace erasmus {
namespace {

using attest::MsgType;
using attest::Prover;
using Outcome = attest::Prover::Outcome;
using sim::Duration;
using sim::Time;

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;
constexpr size_t kStoreSlots = 8;
// Four measurements (T_M = 10 min) precede the serve, and none falls
// between the serve and the last reply's arrival.
const Time kServeAt = Time::zero() + Duration::minutes(45);
const Time kSettled = Time::zero() + Duration::minutes(46);

Bytes device_key() { return bytes_of("serve-path-key-0123456789abcdef!"); }

/// One identically built device, measuring from time zero.
struct Device {
  hw::SmartPlusArch arch;
  Prover prover;

  explicit Device(sim::EventQueue& queue)
      : arch(device_key(), 4096, 2048, kStoreSlots * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<attest::RegularScheduler>(
                   Duration::minutes(10)),
               attest::ProverConfig{}) {
    prover.start();
  }
};

/// A request as it goes on the wire: a raw type byte (so an out-of-range
/// one can be sent) and a body.
struct Message {
  uint8_t type;
  Bytes body;
};

struct Case {
  std::string name;
  std::vector<Message> messages;
  std::vector<Outcome> outcomes;  // Prover::serve's, one per message
};

struct Reply {
  MsgType type;
  Bytes body;
  uint64_t processing_ns;
  bool operator==(const Reply&) const = default;
};

/// What one path saw: the replies in arrival order, and the serving
/// prover's stats afterwards.
struct Observed {
  std::vector<Reply> replies;
  Prover::Stats stats;
};

auto stats_tuple(const Prover::Stats& s) {
  return std::make_tuple(s.measurements, s.aborted, s.skipped, s.collections,
                         s.od_accepted, s.od_rejected,
                         s.total_measurement_time.ns(),
                         s.task_interference.ns(), s.max_schedule_slip.ns());
}

Message request(MsgType type, Bytes body) {
  return {static_cast<uint8_t>(type), std::move(body)};
}

Message collect(uint32_t k) {
  return request(MsgType::kCollectRequest,
                 attest::CollectRequest{k}.serialize());
}

attest::OdRequest od_request(uint64_t treq, uint32_t k) {
  attest::OdRequest req;
  req.treq = treq;
  req.k = k;
  req.mac = crypto::Mac::compute(crypto::MacAlgo::kHmacSha256, device_key(),
                                 attest::OdRequest::mac_input(treq, k));
  return req;
}

Message od(const attest::OdRequest& req) {
  return request(MsgType::kOdRequest, req.serialize());
}

std::vector<Case> cases() {
  // The prover's RROC ticks once per second.
  const uint64_t now = kServeAt.ns() / Duration::seconds(1).ns();
  attest::OdRequest forged = od_request(now, 3);
  forged.mac[0] ^= 0x01;
  Bytes short_collect = attest::CollectRequest{4}.serialize();
  short_collect.pop_back();
  Bytes short_od = od_request(now, 3).serialize();
  short_od.pop_back();
  const Bytes collect_body = attest::CollectRequest{4}.serialize();
  return {
      {"collect_k0", {collect(0)}, {Outcome::kReplied}},
      {"collect_k4", {collect(4)}, {Outcome::kReplied}},
      {"collect_k_over_store",
       {collect(kStoreSlots + 5)},
       {Outcome::kReplied}},
      {"od_k0", {od(od_request(now, 0))}, {Outcome::kReplied}},
      {"od_k3", {od(od_request(now, 3))}, {Outcome::kReplied}},
      {"od_forged_mac", {od(forged)}, {Outcome::kRejected}},
      {"od_stale", {od(od_request(now - 11, 3))}, {Outcome::kRejected}},
      {"od_replayed",
       {od(od_request(now, 3)), od(od_request(now, 3))},
       {Outcome::kReplied, Outcome::kRejected}},
      {"collect_truncated",
       {request(MsgType::kCollectRequest, short_collect)},
       {Outcome::kMalformed}},
      {"od_truncated",
       {request(MsgType::kOdRequest, short_od)},
       {Outcome::kMalformed}},
      {"collect_empty", {request(MsgType::kCollectRequest, {})},
       {Outcome::kMalformed}},
      {"od_empty", {request(MsgType::kOdRequest, {})}, {Outcome::kMalformed}},
      {"response_type", {request(MsgType::kCollectResponse, collect_body)},
       {Outcome::kNotRequest}},
      {"type_out_of_range", {{9, collect_body}}, {Outcome::kNotRequest}},
  };
}

size_t count(const std::vector<Outcome>& outcomes, Outcome which) {
  return static_cast<size_t>(
      std::count(outcomes.begin(), outcomes.end(), which));
}

// --- The paths ---------------------------------------------------------------

Observed via_serve(const Case& c) {
  sim::EventQueue queue;
  Device dev(queue);
  queue.run_until(kServeAt);
  Observed seen;
  for (size_t i = 0; i < c.messages.size(); ++i) {
    const Message& m = c.messages[i];
    const Prover::Reply r =
        dev.prover.serve(static_cast<MsgType>(m.type), m.body);
    EXPECT_EQ(r.outcome, c.outcomes[i]) << "message " << i;
    if (r.outcome == Outcome::kReplied) {
      seen.replies.push_back({r.type, r.body, r.processing.ns()});
    }
  }
  seen.stats = dev.prover.stats();
  return seen;
}

/// Two identical devices (endpoints 0 and 1) behind one DirectTransport,
/// in two radio domains when batch serve is on.
struct DirectRig {
  sim::EventQueue queue;
  common::ParallelExecutor executor{2};
  Device dev0{queue};
  Device dev1{queue};
  attest::DirectTransport transport;
  struct Delivery {
    net::NodeId src;
    Reply reply;
  };
  std::vector<Delivery> log;

  explicit DirectRig(bool batch_serve) {
    transport.attach(0, dev0.prover);
    transport.attach(1, dev1.prover);
    if (batch_serve) transport.enable_batch_serve(executor, 2, /*sink=*/0);
    transport.set_receiver([this](net::NodeId src, MsgType type,
                                  ByteView body) {
      log.push_back({src, {type, Bytes(body.begin(), body.end()),
                           transport.last_processing().ns()}});
    });
    queue.run_until(kServeAt);
  }

  std::vector<Reply> replies_from(net::NodeId src) const {
    std::vector<Reply> out;
    for (const Delivery& d : log) {
      if (d.src == src) out.push_back(d.reply);
    }
    return out;
  }
};

Observed via_send(const Case& c) {
  // A batch-serving transport: send() takes the same slot path, and a
  // single peer never counts as batch-serve traffic.
  DirectRig rig(/*batch_serve=*/true);
  for (const Message& m : c.messages) {
    const size_t delivered = rig.log.size();
    rig.transport.send(0, static_cast<MsgType>(m.type), m.body);
    if (rig.log.size() == delivered) {
      EXPECT_EQ(rig.transport.last_processing().ns(), 0u)
          << "no reply, no processing time";
    }
  }
  const auto& counters = rig.transport.batch_counters();
  EXPECT_EQ(counters.frames_local + counters.frames_cross + counters.drains,
            0u);
  EXPECT_EQ(rig.dev1.prover.stats().collections, 0u);
  return {rig.replies_from(0), rig.dev0.prover.stats()};
}

Observed via_broadcast(const Case& c, bool batch_serve) {
  DirectRig rig(batch_serve);
  for (const Message& m : c.messages) {
    rig.transport.broadcast({0, 1}, static_cast<MsgType>(m.type), m.body);
  }
  // The twin answers alike, and each broadcast delivers in batch order.
  const std::vector<Reply> replies = rig.replies_from(0);
  EXPECT_EQ(rig.replies_from(1), replies);
  for (size_t i = 0; i < rig.log.size(); ++i) {
    EXPECT_EQ(rig.log[i].src, i % 2) << "delivery " << i;
  }
  EXPECT_EQ(stats_tuple(rig.dev1.prover.stats()),
            stats_tuple(rig.dev0.prover.stats()));
  // Channel counts: only a batch-served broadcast of >= 2 peers, one
  // drain per broadcast that delivered, one frame per reply.
  const auto& counters = rig.transport.batch_counters();
  const uint64_t served = batch_serve ? replies.size() : 0;
  EXPECT_EQ(counters.frames_local, served);  // endpoint 0: the sink's domain
  EXPECT_EQ(counters.frames_cross, served);
  EXPECT_EQ(counters.drains, served);
  return {replies, rig.dev0.prover.stats()};
}

Observed via_network(const Case& c) {
  sim::EventQueue queue;
  net::Network network(queue, Duration(0));
  Observed seen;
  const net::NodeId verifier =
      network.add_node([&](const net::Datagram& d) {
        const auto framed = attest::unframe(d.payload);
        ASSERT_TRUE(framed.has_value());
        seen.replies.push_back(
            {framed->first,
             Bytes(framed->second.begin(), framed->second.end()),
             (queue.now() - kServeAt).ns()});
      });
  Device dev(queue);
  const net::NodeId node = network.add_node({});
  dev.prover.bind(network, node);
  queue.run_until(kServeAt);
  for (const Message& m : c.messages) {
    Bytes datagram{m.type};
    append(datagram, m.body);
    network.send(verifier, node, std::move(datagram));
  }
  queue.run_until(kSettled);
  seen.stats = dev.prover.stats();
  return seen;
}

using Carrier = std::function<Bytes(size_t, const Message&)>;

/// A relay node serving its device for a verifier one hop up; `carrier`
/// frames message `i` (flood / scoped request id i + 1).
Observed via_relay(const Case& c, const Carrier& carrier) {
  sim::EventQueue queue;
  net::Network network(queue, Duration(0));
  const overlay::RelayNodeConfig config;
  Observed seen;
  const net::NodeId verifier =
      network.add_node([&](const net::Datagram& d) {
        const auto framed = overlay::unframe_relay(d.payload);
        ASSERT_TRUE(framed.has_value());
        const auto report = overlay::ReportView::parse(framed->first,
                                                       framed->second);
        ASSERT_TRUE(report.has_value());
        // The report left one forward spacing after the prover's reply.
        seen.replies.push_back(
            {static_cast<MsgType>(report->inner_type),
             Bytes(report->response.begin(), report->response.end()),
             (queue.now() - kServeAt - config.forward_spacing).ns()});
      });
  Device dev(queue);
  const net::NodeId node = network.add_node({});
  overlay::RelayNode relay(queue, network, node, dev.prover, config);
  queue.run_until(kServeAt);
  for (size_t i = 0; i < c.messages.size(); ++i) {
    network.send(verifier, node, carrier(i, c.messages[i]));
  }
  queue.run_until(kSettled);
  // Only an undecodable request is a malformed frame; the carrier parsed.
  EXPECT_EQ(relay.stats().malformed_frames,
            count(c.outcomes, Outcome::kMalformed));
  EXPECT_EQ(relay.stats().requests_served, seen.replies.size());
  seen.stats = dev.prover.stats();
  return seen;
}

Bytes flood(size_t i, const Message& m) {
  overlay::CollectFlood f;
  f.flood = static_cast<uint32_t>(i + 1);
  f.ttl = 0;
  f.inner_type = m.type;
  f.request = m.body;
  return overlay::frame_relay(overlay::RelayMsg::kCollectFlood, f.serialize());
}

Bytes scoped(size_t i, const Message& m) {
  overlay::ScopedRequest s;
  s.flood = static_cast<uint32_t>(i + 1);
  s.inner_type = m.type;
  s.request = m.body;
  return overlay::frame_relay(overlay::RelayMsg::kScopedRequest,
                              s.serialize());
}

TEST(ServePath, EveryCarrierGetsTheSameAnswer) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Observed want = via_serve(c);
    EXPECT_EQ(want.replies.size(), count(c.outcomes, Outcome::kReplied));
    const std::vector<std::pair<std::string, Observed>> paths = {
        {"DirectTransport::send", via_send(c)},
        {"broadcast, batch serve on", via_broadcast(c, true)},
        {"broadcast, batch serve off", via_broadcast(c, false)},
        {"Network-bound prover", via_network(c)},
        {"RelayNode flood", via_relay(c, flood)},
        {"RelayNode scoped request", via_relay(c, scoped)},
    };
    for (const auto& [path, seen] : paths) {
      EXPECT_EQ(seen.replies, want.replies) << path;
      EXPECT_EQ(stats_tuple(seen.stats), stats_tuple(want.stats)) << path;
    }
  }
}

TEST(ServePath, OnlyAPoolServedBroadcastCountsChannelTraffic) {
  // channels/*: a broadcast of >= 2 peers with batch serve enabled. A
  // round that reaches one device broadcasts to one peer, and counts
  // nothing, like send().
  DirectRig rig(/*batch_serve=*/true);
  const Bytes body = attest::CollectRequest{4}.serialize();
  rig.transport.broadcast({1}, MsgType::kCollectRequest, body);
  rig.transport.send(0, MsgType::kCollectRequest, body);
  ASSERT_EQ(rig.log.size(), 2u);
  const auto& counters = rig.transport.batch_counters();
  EXPECT_EQ(counters.frames_local + counters.frames_cross + counters.drains,
            0u);
  rig.transport.broadcast({1, 0}, MsgType::kCollectRequest, body);
  ASSERT_EQ(rig.log.size(), 4u);
  EXPECT_EQ(rig.log[2].src, 1u);
  EXPECT_EQ(counters.frames_local, 1u);
  EXPECT_EQ(counters.frames_cross, 1u);
  EXPECT_EQ(counters.drains, 1u);
}

}  // namespace
}  // namespace erasmus
