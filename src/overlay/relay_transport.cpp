#include "overlay/relay_transport.h"

#include <algorithm>

namespace erasmus::overlay {

namespace {
bool valid_msg_type(uint8_t raw) {
  return raw >= static_cast<uint8_t>(attest::MsgType::kCollectRequest) &&
         raw <= static_cast<uint8_t>(attest::MsgType::kOdResponse);
}
}  // namespace

RelayTransport::RelayTransport(net::Network& network, net::NodeId self,
                               size_t num_nodes, RelayTransportConfig config)
    : network_(network), self_(self), num_nodes_(num_nodes), config_(config) {
  routes_.resize(num_nodes_);  // one slot per node; valid gates occupancy
  network_.set_handler(self_,
                       [this](const net::Datagram& d) { on_datagram(d); });
}

void RelayTransport::trace_overlay(const char* name, obs::TraceArgs args) {
  obs::TraceRecorder* trace = config_.trace;
  if (!trace || !trace->enabled(obs::Subsystem::kOverlay)) return;
  trace->instant(obs::Subsystem::kOverlay, network_.now(), name,
                 std::move(args));
}

RelayTransport::~RelayTransport() {
  network_.set_handler(self_, {});
}

void RelayTransport::register_flood(uint32_t flood) {
  delivered_[flood];  // open the dedup window for this flood
  while (delivered_.size() > config_.flood_memory) {
    agg_delivered_.erase(delivered_.begin()->first);
    delivered_.erase(delivered_.begin());
  }
}

void RelayTransport::launch_flood(std::vector<net::NodeId> targets,
                                  attest::MsgType type, ByteView body,
                                  bool aggregate_eligible) {
  CollectFlood flood;
  flood.flood = next_flood_++;
  flood.targets = std::move(targets);
  flood.ttl = config_.ttl;
  if (aggregate_eligible) flood.flags |= kFloodAggregate;
  flood.inner_type = static_cast<uint8_t>(type);
  flood.request.assign(body.begin(), body.end());

  register_flood(flood.flood);

  trace_overlay("flood",
                {{"flood", static_cast<uint64_t>(flood.flood)},
                 {"targets", static_cast<uint64_t>(flood.targets.size())},
                 {"ttl", static_cast<uint64_t>(flood.ttl)}});

  network_.broadcast_all(self_, /*except=*/self_,
                         frame_relay(RelayMsg::kCollectFlood,
                                     flood.serialize()));
}

void RelayTransport::launch_scoped(CachedRoute& route, attest::MsgType type,
                                   ByteView body) {
  ScopedRequest request;
  request.flood = next_flood_++;
  request.inner_type = static_cast<uint8_t>(type);
  // The first hop is addressed directly; it receives the rest of the
  // path down to (and including) the target.
  request.route.assign(route.route.begin() + 1, route.route.end());
  request.request.assign(body.begin(), body.end());

  register_flood(request.flood);  // the response report needs dedup state

  trace_overlay("scoped_send",
                {{"flood", static_cast<uint64_t>(request.flood)},
                 {"target", static_cast<uint64_t>(route.route.back())},
                 {"hops", static_cast<uint64_t>(route.route.size())}});

  route.used = true;
  network_.send(self_, route.route.front(),
                frame_relay(RelayMsg::kScopedRequest, request.serialize()));
}

bool RelayTransport::has_fresh_route(net::NodeId peer) const {
  if (peer >= routes_.size()) return false;
  const CachedRoute& route = routes_[peer];
  return route.valid && !route.used &&
         network_.now() - route.learned_at <= kRouteTtl;
}

void RelayTransport::send(net::NodeId peer, attest::MsgType type,
                          ByteView body) {
  const bool retry = next_broadcast_is_retry_;
  next_broadcast_is_retry_ = false;
  // Scoped routing applies to RETRIES only: a first attempt has no
  // business burning the route cache the retry path depends on.
  if (retry && config_.scoped_retries) {
    if (has_fresh_route(peer)) {
      // The peer's path was recorded recently: retry as a source-routed
      // unicast down it instead of waking the whole swarm. Burned after
      // one use -- a silent failure means the route is suspect, so the
      // next retry re-floods.
      ++stats_.scoped_sent;
      launch_scoped(routes_[peer], type, body);
      return;
    }
    ++stats_.scoped_fallbacks;
    trace_overlay("scoped_fallback", {{"target", static_cast<uint64_t>(peer)}});
  }
  // A targeted flood: everyone forwards, only `peer` serves. The fresh
  // flood id rebuilds the parent tree from the topology as it is NOW, so
  // per-device re-floods double as route re-discovery.
  ++stats_.targeted_floods;
  launch_flood({peer}, type, body);
}

void RelayTransport::broadcast(const std::vector<net::NodeId>& peers,
                               attest::MsgType type, ByteView body) {
  const bool retry_wave = next_broadcast_is_retry_;
  next_broadcast_is_retry_ = false;
  // A coalesced retry wave where EVERY member has a fresh recorded path
  // needs no flood at all: unicast each down its parent chain. (All or
  // nothing -- once one member needs a flood, the flood reaches everyone
  // anyway, so extra unicasts would only add traffic. Retries only --
  // first-attempt dispatch must not burn the route cache.)
  if (retry_wave && config_.scoped_retries && !peers.empty()) {
    const bool all_routed = std::all_of(
        peers.begin(), peers.end(),
        [this](net::NodeId peer) { return has_fresh_route(peer); });
    if (all_routed) {
      for (const net::NodeId peer : peers) {
        ++stats_.scoped_sent;
        launch_scoped(routes_[peer], type, body);
      }
      return;
    }
    // Retry-economy accounting: how many retried devices had no usable
    // route, forcing this wave back onto the flood path.
    for (const net::NodeId peer : peers) {
      if (!has_fresh_route(peer)) {
        ++stats_.scoped_fallbacks;
        trace_overlay("scoped_fallback",
                      {{"target", static_cast<uint64_t>(peer)}});
      }
    }
  }
  // One flood covers the dispatch batch: flooding is field-wide by
  // nature, but scoping the serve set to the batch keeps the report
  // volume inside the service's window. A batch that covers every node
  // compresses to the {kEveryone} wildcard.
  if (retry_wave) {
    ++stats_.targeted_floods;
  } else {
    ++stats_.floods_sent;
  }
  // Multi-member waves are aggregate-eligible; a single-device batch has
  // nothing to combine and stays on the raw path.
  const bool aggregate_eligible = config_.aggregate && peers.size() > 1;
  if (peers.size() + 1 >= num_nodes_) {
    launch_flood({kEveryone}, type, body, aggregate_eligible);
    return;
  }
  launch_flood(peers, type, body, aggregate_eligible);
}

void RelayTransport::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
}

sim::Duration RelayTransport::latency() const {
  return (network_.latency() + config_.forward_spacing) *
         (static_cast<uint64_t>(config_.ttl) + 1);
}

double RelayTransport::take_congestion() {
  const double occupancy = pending_congestion_;
  pending_congestion_ = 0.0;
  return occupancy;
}

void RelayTransport::on_datagram(const net::Datagram& dgram) {
  const auto framed = unframe_relay(dgram.payload);
  if (!framed) {
    ++stats_.malformed_frames;
    return;
  }
  switch (framed->first) {
    case RelayMsg::kCollectFlood:
    case RelayMsg::kScopedRequest:
      // Our own traffic echoed back by a neighbour; nothing to do.
      return;
    case RelayMsg::kScopedNak: {
      const auto nak = ScopedNak::deserialize(framed->second);
      if (!nak) {
        ++stats_.malformed_frames;
        return;
      }
      // A hop on the cached route lost its next link: the route is
      // stale. Evict it so the session's next retry re-floods.
      ++stats_.naks_received;
      trace_overlay("nak", {{"flood", static_cast<uint64_t>(nak->flood)},
                            {"target", static_cast<uint64_t>(nak->target)}});
      if (nak->target < routes_.size()) routes_[nak->target].valid = false;
      return;
    }
    case RelayMsg::kRelayReport:
    case RelayMsg::kAggregateReport:
      break;
  }
  // One intake prefix for both report kinds: parse, origin-range guard,
  // congestion sample, route-cache refresh, stale check.
  const auto report = ReportView::parse(framed->first, framed->second);
  if (!report ||
      (!report->aggregate() && !valid_msg_type(report->inner_type))) {
    ++stats_.malformed_frames;
    return;
  }
  if (report->origin >= num_nodes_) {
    // Claimed origin (or head) does not exist on this network: a
    // Sybil/spoofed report. Rejected BEFORE the congestion sample and
    // route-cache refresh below -- forged traffic must not poison either.
    ++stats_.spoofed_rejected;
    trace_overlay("spoofed_rejected",
                  {{"flood", static_cast<uint64_t>(report->flood)},
                   {"origin", static_cast<uint64_t>(report->origin)}});
    return;
  }
  // Any well-formed report carries live routing and congestion evidence,
  // duplicates and stragglers included -- the relay queues and links it
  // crossed are real even when the payload is redundant.
  pending_congestion_ = std::max(
      pending_congestion_, static_cast<double>(report->queue) / 255.0);
  const NodeList& path = report->path;
  if (config_.scoped_retries && !path.empty() &&
      path[0] == report->origin &&
      path.size() == static_cast<size_t>(report->hops) + 1) {
    // The path, reversed, is the verifier's downlink route to the origin
    // -- and every prefix of it is the route to the relay that appended
    // that hop. Cache them all: a device whose own response was lost is
    // still reachable over its parent chain whenever it relayed anybody
    // else's report.
    const sim::Time now = network_.now();
    std::vector<net::NodeId> route;
    route.reserve(path.size());
    for (size_t i = path.size(); i-- > 0;) {
      const net::NodeId hop = path[i];
      route.push_back(hop);
      if (hop < routes_.size()) {
        routes_[hop] = CachedRoute{route, now, /*used=*/false,
                                   /*valid=*/true};
      }
    }
  }
  const auto it = delivered_.find(report->flood);
  if (it == delivered_.end()) {
    // A flood id we never launched, or one already outside the dedup
    // window: a straggler from a long-finished round (or a forgery).
    ++stats_.stale_reports;
    return;
  }
  if (report->aggregate()) {
    deliver_aggregate(*report);
    return;
  }
  if (!it->second.insert(report->origin).second) {
    ++stats_.duplicate_reports;  // same report over a second path
    return;
  }
  ++stats_.reports_received;
  hop_count_.observe(static_cast<double>(report->hops));
  trace_overlay("report",
                {{"flood", static_cast<uint64_t>(report->flood)},
                 {"origin", static_cast<uint64_t>(report->origin)},
                 {"hops", static_cast<uint64_t>(report->hops)},
                 {"queue", static_cast<double>(report->queue) / 255.0}});
  if (hops_.size() <= report->hops) hops_.resize(report->hops + 1, 0);
  ++hops_[report->hops];
  if (receiver_) {
    receiver_(report->origin,
              static_cast<attest::MsgType>(report->inner_type),
              report->response);
  }
}

void RelayTransport::deliver_aggregate(const ReportView& env) {
  if (!agg_delivered_[env.flood].insert(env.origin).second) {
    ++stats_.duplicate_aggregates;  // same aggregate over a second path
    return;
  }
  const auto frame = aggregate::AggregateFrame::deserialize(env.response);
  if (!frame || frame->head != env.origin || frame->flood != env.flood) {
    // An unparsable payload -- or an envelope whose addressing disagrees
    // with the authenticated frame inside it -- is a malformed frame.
    ++stats_.malformed_frames;
    return;
  }
  ++stats_.aggregates_received;
  stats_.aggregate_members += frame->members.size();
  stats_.aggregate_wire_bytes += env.response.size();
  stats_.aggregate_raw_bytes += frame->raw_bytes;
  hop_count_.observe(static_cast<double>(env.hops));
  trace_overlay("aggregate",
                {{"flood", static_cast<uint64_t>(env.flood)},
                 {"head", static_cast<uint64_t>(env.origin)},
                 {"members", static_cast<uint64_t>(frame->members.size())},
                 {"hops", static_cast<uint64_t>(env.hops)}});
  if (aggregate_receiver_) aggregate_receiver_(*frame, env.hops);
}

}  // namespace erasmus::overlay
