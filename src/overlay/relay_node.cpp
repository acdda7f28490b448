#include "overlay/relay_node.h"

#include <algorithm>
#include <utility>

#include "attest/measurement.h"
#include "attest/protocol.h"
#include "crypto/mac.h"

namespace erasmus::overlay {

RelayNode::RelayNode(sim::EventQueue& queue, net::Network& network,
                     net::NodeId self, attest::Prover& prover,
                     RelayNodeConfig config)
    : queue_(queue), network_(network), self_(self), prover_(prover),
      config_(config), events_(queue) {
  network_.set_handler(self_,
                       [this](const net::Datagram& d) { on_datagram(d); });
}

RelayNode::~RelayNode() {
  // Detach so in-flight datagrams cannot fire into a freed node; events_
  // cancels the pending serve/drain/flush events for the same reason.
  network_.set_handler(self_, {});
}

void RelayNode::on_datagram(const net::Datagram& dgram) {
  if (config_.meter && config_.meter->dark()) {
    // Battery exhausted: the radio still drew the rx joules (charged by the
    // network's energy tap before delivery), but nobody is home to serve,
    // relay, or re-flood. The frame dies here.
    ++stats_.dropped_dark;
    return;
  }
  const auto framed = unframe_relay(dgram.payload);
  if (!framed) {
    ++stats_.malformed_frames;
    return;
  }
  switch (framed->first) {
    case RelayMsg::kCollectFlood: {
      const auto flood = FloodView::parse(framed->second);
      if (!flood) {
        ++stats_.malformed_frames;
        return;
      }
      handle_flood(*flood, dgram.src);
      return;
    }
    case RelayMsg::kRelayReport:
    case RelayMsg::kAggregateReport: {
      const auto report = ReportView::parse(framed->first, framed->second);
      if (!report) {
        ++stats_.malformed_frames;
        return;
      }
      relay(*report);
      return;
    }
    case RelayMsg::kScopedRequest: {
      auto request = ScopedRequest::deserialize(framed->second);
      if (!request) {
        ++stats_.malformed_frames;
        return;
      }
      handle_scoped(std::move(*request), dgram.src);
      return;
    }
    case RelayMsg::kScopedNak: {
      const auto nak = ScopedNak::deserialize(framed->second);
      if (!nak) {
        ++stats_.malformed_frames;
        return;
      }
      // Climb the same parent chain the scoped request laid down; a
      // pruned route leaves the NAK with nowhere to go (the verifier's
      // session timeout still recovers).
      const auto it = routes_.find(nak->flood);
      if (it == routes_.end()) {
        ++stats_.reports_orphaned;
        return;
      }
      ++stats_.naks_forwarded;
      network_.send(self_, uplink(it->second),
                    frame_relay(RelayMsg::kScopedNak, nak->serialize()));
      return;
    }
  }
}

void RelayNode::trace_adversarial(const char* name,
                                  const ReportView& report) {
  obs::TraceRecorder* trace = config_.trace;
  if (!trace || !trace->enabled(obs::Subsystem::kOverlay)) return;
  trace->instant(obs::Subsystem::kOverlay, queue_.now(), name,
                 {{"node", static_cast<uint64_t>(self_)},
                  {"flood", static_cast<uint64_t>(report.flood)},
                  {"origin", static_cast<uint64_t>(report.origin)}});
}

void RelayNode::relay(const ReportView& report) {
  // Pure relay: never parse the payload. Unknown flood (never heard it,
  // or route state already pruned) -> nowhere to send it.
  if (routes_.find(report.flood) == routes_.end()) {
    ++stats_.reports_orphaned;
    return;
  }
  // A compromised relay discards what it was trusted to carry. Placed
  // after the route lookup so only frames this node would actually have
  // relayed count as attack losses.
  if (config_.compromise.drop_relayed) {
    ++stats_.dropped_adversarial;
    trace_adversarial("adversarial_drop", report);
    return;
  }
  // Head role: while the aggregation window is open, child reports stop
  // here and fold into the cluster aggregate instead of climbing on.
  // Reports arriving after the flush relay raw as usual, and a deeper
  // head's aggregate passes unchanged (no re-aggregation).
  if (!report.aggregate()) {
    const auto agg = aggs_.find(report.flood);
    if (agg != aggs_.end()) {
      agg->second.absorb(report.origin, report.response);
      ++stats_.reports_absorbed;
      if (agg->second.members() >= kMaxClusterMembers) {
        flush_aggregate(report.flood);
      }
      return;
    }
  }
  if (config_.compromise.corrupt_relayed) {
    // Scribble instead of drop: the mangled frame still burns this node's
    // queue slot and forward spacing, then fails to parse at the next hop
    // (its malformed_frames). Truncating the tail keeps the relay framing
    // header valid but breaks the inner parse, which insists on consuming
    // the frame exactly. The queue byte is left as it arrived.
    ++stats_.corrupted_adversarial;
    trace_adversarial("adversarial_corrupt", report);
    Bytes frame = report.relay_frame(self_, report.queue);
    frame.resize(frame.size() - frame.size() / 3);
    enqueue_frame(report.flood, report.origin, std::move(frame),
                  /*relayed=*/true, report.aggregate());
    return;
  }
  // The congestion piggyback of enqueue_report(), on the patched frame.
  enqueue_frame(report.flood, report.origin,
                report.relay_frame(self_,
                                   std::max(report.queue, occupancy_byte())),
                /*relayed=*/true, report.aggregate());
}

void RelayNode::handle_scoped(ScopedRequest request, net::NodeId from) {
  // Record the sender as this flood's parent BEFORE anything else: the
  // response report (or a NAK from further down) returns over exactly the
  // hops the request traversed.
  routes_[request.flood] = FloodRoute{from};
  prune_routes();
  first_sight(request.flood);  // keep the dedup watermark monotone

  if (request.route.empty()) {
    serve(request.flood, request.inner_type, request.request);
    return;
  }
  const net::NodeId next = request.route.front();
  if (link_probe_ && !link_probe_(self_, next)) {
    // The cached route broke at this hop. Tell the verifier (so the next
    // retry re-floods) instead of transmitting into the void.
    ++stats_.naks_sent;
    const ScopedNak nak{request.flood, request.route.back()};
    network_.send(self_, from,
                  frame_relay(RelayMsg::kScopedNak, nak.serialize()));
    return;
  }
  request.route.erase(request.route.begin());
  ++stats_.scoped_forwarded;
  network_.send(self_, next,
                frame_relay(RelayMsg::kScopedRequest, request.serialize()));
}

bool RelayNode::first_sight(uint32_t flood) {
  // Dedup window: transport flood ids are monotone, so once the watermark
  // has moved this far past an id, any copy of it still circulating is a
  // duplicate. MUST be wider than route memory: if a pruned route were
  // mistaken for first sight, its echoes would re-flood exponentially.
  constexpr uint32_t kWindow = 1u << 16;
  if (flood + kWindow < flood_watermark_) return false;  // ancient echo
  auto& seen = seen_floods_;
  // Ids arrive nearly ascending: the common case appends.
  if (seen.empty() || seen.back() < flood) {
    seen.push_back(flood);
  } else {
    const auto it = std::lower_bound(seen.begin(), seen.end(), flood);
    if (*it == flood) return false;
    seen.insert(it, flood);
  }
  if (flood > flood_watermark_) {
    flood_watermark_ = flood;
    // An id below the window never matches again (the echo test above
    // turns it away first). Dropping them once they are half the list
    // moves each id a bounded number of times.
    if (flood_watermark_ > kWindow) {
      const auto live = std::lower_bound(seen.begin(), seen.end(),
                                         flood_watermark_ - kWindow);
      if (live - seen.begin() >= seen.end() - live) {
        seen.erase(seen.begin(), live);
      }
    }
  }
  return true;
}

void RelayNode::handle_flood(const FloodView& flood, net::NodeId from) {
  ++stats_.floods_seen;
  if (!first_sight(flood.flood)) {
    // Duplicate arrival: remember the sender as an alternate uplink for
    // route repair; the flood was already served and forwarded.
    const auto it = routes_.find(flood.flood);
    if (it == routes_.end()) return;  // route state already pruned
    FloodRoute& route = it->second;
    const auto alternates_end =
        route.alternates.begin() + route.alternate_count;
    if (from != route.parent && route.alternate_count < kMaxAlternates &&
        std::find(route.alternates.begin(), alternates_end, from) ==
            alternates_end) {
      route.alternates[route.alternate_count++] = from;
    }
    return;
  }

  routes_[flood.flood] = FloodRoute{from};
  prune_routes();

  if (config_.compromise.sybil_per_flood > 0) {
    // Sybil flood: answer each first-sight collection flood with forged
    // reports from origins that do not exist on the network. They travel
    // the honest uplink path, consuming queue slots and spacing all the
    // way up, until the verifier's transport rejects the out-of-range
    // origins (spoofed_rejected). The bogus responses carry no valid MAC
    // either -- origin-range rejection just catches them cheaper.
    if (obs::TraceRecorder* trace = config_.trace;
        trace && trace->enabled(obs::Subsystem::kOverlay)) {
      trace->instant(
          obs::Subsystem::kOverlay, queue_.now(), "sybil_inject",
          {{"node", static_cast<uint64_t>(self_)},
           {"flood", static_cast<uint64_t>(flood.flood)},
           {"count",
            static_cast<uint64_t>(config_.compromise.sybil_per_flood)}});
    }
    for (uint32_t j = 0; j < config_.compromise.sybil_per_flood; ++j) {
      RelayReport forged;
      forged.flood = flood.flood;
      forged.origin = config_.compromise.sybil_origin_base + j;
      forged.hops = 0;
      forged.inner_type =
          static_cast<uint8_t>(attest::MsgType::kCollectResponse);
      forged.path.push_back(self_);
      forged.response = Bytes(24, 0xAB);
      ++stats_.sybil_injected;
      enqueue_report(std::move(forged), /*relayed=*/false);
    }
  }

  // First-sight depth: the frame carries the sender's re-broadcast count,
  // so this node sits one deeper. Election must precede serve(): with
  // zero processing time the node's own report would otherwise race the
  // window open.
  const uint32_t depth = std::min<uint32_t>(flood.depth, 254) + 1;
  if (config_.aggregation.enabled && (flood.flags & kFloodAggregate) != 0 &&
      aggregate::is_head(config_.aggregation.election, self_, depth)) {
    elect_head(flood.flood, depth);
  }

  if (flood.serves(self_)) {
    serve(flood.flood, flood.inner_type, flood.request);
  }

  if (flood.ttl > 0) {
    ++stats_.floods_forwarded;
    // Offered to every node but the one it came from; the network's link
    // filter delivers only to nodes in radio range at this instant (§6).
    network_.broadcast_all(
        self_, from,
        flood.forward_frame(
            static_cast<uint8_t>(flood.ttl - 1),
            static_cast<uint8_t>(std::min<uint32_t>(depth, 255))));
  }
}

void RelayNode::elect_head(uint32_t flood_id, uint32_t depth) {
  if (aggs_.count(flood_id) != 0) return;
  // The healthy judgment compares children against this node's own latest
  // digest; a prover that has never measured has no yardstick and
  // declines the role (its cluster's reports simply relay raw).
  const auto latest = prover_.store().get(prover_.latest_index());
  if (!prover_.any_measurement_taken() || !latest) return;
  ++stats_.heads_elected;
  if (obs::TraceRecorder* trace = config_.trace;
      trace && trace->enabled(obs::Subsystem::kOverlay)) {
    trace->instant(obs::Subsystem::kOverlay, queue_.now(), "head_elected",
                   {{"node", static_cast<uint64_t>(self_)},
                    {"flood", static_cast<uint64_t>(flood_id)},
                    {"depth", static_cast<uint64_t>(depth)}});
  }
  aggs_.emplace(flood_id,
                aggregate::Combiner(attest::hash_for(prover_.config().algo),
                                    latest->digest.to_bytes()));
  while (aggs_.size() > config_.flood_memory) aggs_.erase(aggs_.begin());
  events_.schedule_after(config_.aggregation.window,
                         [this, flood_id] { flush_aggregate(flood_id); });
}

void RelayNode::flush_aggregate(uint32_t flood_id) {
  const auto it = aggs_.find(flood_id);
  if (it == aggs_.end()) return;
  const aggregate::Combiner combiner = std::move(it->second);
  aggs_.erase(it);
  if (combiner.members() == 0) return;
  if (config_.meter && config_.meter->dark()) {
    // The battery died while the evidence was held: the aggregate never
    // existed on the wire. Counted apart from dropped_dark -- these
    // members re-enter collection via election-time recovery (session
    // timeouts re-flood, and the new tree routes around this node).
    ++stats_.aggregates_dark_purged;
    return;
  }
  // Combine cost: the head pays CPU for hashing the absorbed evidence and
  // one MAC. Charging may itself brown the head out mid-combine.
  if (config_.aggregation.combine_charge) {
    config_.aggregation.combine_charge(combiner.raw_bytes(), queue_.now());
    if (config_.meter && config_.meter->dark()) {
      ++stats_.aggregates_dark_purged;
      return;
    }
  }
  aggregate::AggregateFrame frame = combiner.build(flood_id, self_);
  prover_.arch().run_protected([&](hw::SecurityArch::ProtectedContext& ctx) {
    frame.mac = crypto::Mac::compute(prover_.config().algo, ctx.key(),
                                     aggregate::aggregate_mac_input(frame));
  });
  ++stats_.aggregates_built;
  RelayReport env;
  env.kind = RelayMsg::kAggregateReport;
  env.flood = flood_id;
  env.origin = self_;
  env.path.push_back(self_);
  env.response = frame.serialize();
  if (obs::TraceRecorder* trace = config_.trace;
      trace && trace->enabled(obs::Subsystem::kOverlay)) {
    trace->instant(obs::Subsystem::kOverlay, queue_.now(), "aggregate_built",
                   {{"node", static_cast<uint64_t>(self_)},
                    {"flood", static_cast<uint64_t>(flood_id)},
                    {"members", static_cast<uint64_t>(frame.members.size())},
                    {"raw_bytes", static_cast<uint64_t>(frame.raw_bytes)},
                    {"wire_bytes",
                     static_cast<uint64_t>(env.response.size())}});
  }
  enqueue_report(std::move(env), /*relayed=*/false);
}

void RelayNode::serve(uint32_t flood_id, uint8_t inner_type,
                      ByteView request) {
  // Serve from the co-located prover: a buffer read plus (for OD) one MAC
  // check -- collection itself triggers no measurement (§3, §6).
  Bytes response;
  uint8_t response_type = 0;
  sim::Duration processing;
  switch (static_cast<attest::MsgType>(inner_type)) {
    case attest::MsgType::kCollectRequest: {
      const auto req = attest::CollectRequest::deserialize(request);
      if (!req) {
        ++stats_.malformed_frames;
        return;
      }
      const auto res = prover_.handle_collect(*req);
      response = res.response.serialize();
      response_type = static_cast<uint8_t>(attest::MsgType::kCollectResponse);
      processing = res.processing;
      break;
    }
    case attest::MsgType::kOdRequest: {
      const auto req = attest::OdRequest::deserialize(request);
      if (!req) {
        ++stats_.malformed_frames;
        return;
      }
      const auto res = prover_.handle_od(*req);
      if (!res.response) return;  // auth/freshness reject: silent (anti-DoS)
      response = res.response->serialize();
      response_type = static_cast<uint8_t>(attest::MsgType::kOdResponse);
      processing = res.processing;
      break;
    }
    default:
      return;  // not a request; floods never carry responses
  }
  ++stats_.requests_served;

  RelayReport report;
  report.flood = flood_id;
  report.origin = self_;
  report.hops = 0;
  report.inner_type = response_type;
  report.path.push_back(self_);
  report.response = std::move(response);
  events_.schedule_after(processing,
                         [this, report = std::move(report)]() mutable {
                           enqueue_report(std::move(report),
                                          /*relayed=*/false);
                         });
}

uint8_t RelayNode::occupancy_byte() const {
  if (config_.queue_depth == 0) return 255;
  const size_t occupied = std::min(queued() + 1, config_.queue_depth);
  return static_cast<uint8_t>(occupied * 255 / config_.queue_depth);
}

void RelayNode::enqueue_frame(uint32_t flood, net::NodeId origin, Bytes frame,
                              bool relayed, bool aggregate) {
  if (queued() >= config_.queue_depth) {
    ++stats_.reports_dropped;
    if (obs::TraceRecorder* trace = config_.trace;
        trace && trace->enabled(obs::Subsystem::kOverlay)) {
      trace->instant(obs::Subsystem::kOverlay, queue_.now(), "relay_drop",
                     {{"node", static_cast<uint64_t>(self_)},
                      {"flood", static_cast<uint64_t>(flood)},
                      {"origin", static_cast<uint64_t>(origin)}});
    }
    return;
  }
  if (config_.occupancy) {
    config_.occupancy->observe(static_cast<double>(occupancy_byte()) / 255.0);
  }
  if (queue_head_ > 0 && queue_out_.size() == queue_out_.capacity()) {
    queue_out_.erase(queue_out_.begin(),
                     queue_out_.begin() +
                         static_cast<std::ptrdiff_t>(queue_head_));
    queue_head_ = 0;
  }
  queue_out_.push_back({flood, std::move(frame), relayed, aggregate});
  if (!draining_) {
    draining_ = true;
    events_.schedule_after(config_.forward_spacing, [this] { drain_one(); });
  }
}

void RelayNode::enqueue_report(RelayReport report, bool relayed) {
  // Congestion piggyback: the report remembers the most saturated queue
  // it crossed, measured as this queue will stand once it joins it.
  report.queue = std::max(report.queue, occupancy_byte());
  enqueue_frame(report.flood, report.origin, report.frame(), relayed,
                report.aggregate());
}

void RelayNode::drain_one() {
  if (config_.meter && config_.meter->dark()) {
    // Went dark with frames still queued: the store-and-forward buffer
    // dies with the node. Aggregates (queued or still held in an open
    // window) are accounted apart from plain reports -- their members
    // re-enter collection via election-time recovery, not silently.
    for (size_t i = queue_head_; i < queue_out_.size(); ++i) {
      if (queue_out_[i].aggregate) {
        ++stats_.aggregates_dark_purged;
      } else {
        ++stats_.dropped_dark;
      }
    }
    for (const auto& [flood_id, combiner] : aggs_) {
      if (combiner.members() > 0) ++stats_.aggregates_dark_purged;
    }
    aggs_.clear();
    queue_out_.clear();
    queue_head_ = 0;
    draining_ = false;
    return;
  }
  if (queued() == 0) {
    draining_ = false;
    return;
  }
  QueuedReport item = std::move(queue_out_[queue_head_++]);

  const auto it = routes_.find(item.flood);
  if (it == routes_.end()) {
    // Route state pruned while the report sat in the queue.
    ++stats_.reports_orphaned;
  } else {
    if (item.relayed) {
      if (item.aggregate) {
        ++stats_.aggregates_relayed;
      } else {
        ++stats_.reports_relayed;
      }
    }
    network_.send(self_, uplink(it->second), std::move(item.frame));
  }

  if (queued() == 0) {
    draining_ = false;
  } else {
    events_.schedule_after(config_.forward_spacing, [this] { drain_one(); });
  }
}

net::NodeId RelayNode::uplink(FloodRoute& route) {
  // Mobility-aware route repair: if the parent has moved out of range
  // since the flood passed, swap in a still-connected alternate (a
  // neighbour the same flood also arrived from). Without a probe, or with
  // no live alternate, send toward the recorded parent and let the radio
  // drop it -- datagram networks do not report loss to the sender.
  if (!link_probe_ || link_probe_(self_, route.parent)) return route.parent;
  for (size_t i = 0; i < route.alternate_count; ++i) {
    const net::NodeId alt = route.alternates[i];
    if (link_probe_(self_, alt)) {
      ++stats_.route_repairs;
      if (obs::TraceRecorder* trace = config_.trace;
          trace && trace->enabled(obs::Subsystem::kOverlay)) {
        trace->instant(obs::Subsystem::kOverlay, queue_.now(), "route_repair",
                       {{"node", static_cast<uint64_t>(self_)},
                        {"new_uplink", static_cast<uint64_t>(alt)}});
      }
      route.parent = alt;
      return alt;
    }
  }
  return route.parent;
}

void RelayNode::prune_routes() {
  while (routes_.size() > config_.flood_memory) {
    routes_.erase(routes_.begin());  // oldest flood id
  }
}

}  // namespace erasmus::overlay
