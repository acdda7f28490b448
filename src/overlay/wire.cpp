#include "overlay/wire.h"

#include <algorithm>

#include "common/serde.h"

namespace erasmus::overlay {

namespace {

constexpr size_t kTagBytes = 1;

/// Body offsets of the bytes relays patch. A flood body is flood u32,
/// ttl, depth, flags, inner_type, targets, request; a report body is
/// flood u32, origin u32, hops, inner_type (raw reports only), queue,
/// path, response.
constexpr size_t kFloodTtlAt = 4;
constexpr size_t kFloodDepthAt = 5;
constexpr size_t kReportHopsAt = 8;

size_t node_list_size(const std::vector<net::NodeId>& nodes) {
  return 4 + 4 * nodes.size();
}

void write_node_list(ByteWriter& w, const std::vector<net::NodeId>& nodes) {
  w.u32(static_cast<uint32_t>(nodes.size()));
  for (const net::NodeId node : nodes) w.u32(node);
}

/// A u32 count, then that many node ids, read in place. Each entry costs
/// 4 bytes, so a count the remaining input cannot cover is malformed --
/// rejected before anything is read or reserved (adversarial frames must
/// not drive allocation).
std::optional<NodeList> read_node_list(ByteReader& r) {
  const uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining() / 4) return std::nullopt;
  return NodeList(r.view(size_t{count} * 4));
}

void store_le32(uint8_t* p, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

size_t report_body_size(const RelayReport& r) {
  return 4 + 4 + 1 + (r.aggregate() ? 0 : 1) + 1 + node_list_size(r.path) +
         4 + r.response.size();
}

void write_report_body(ByteWriter& w, const RelayReport& r) {
  w.u32(r.flood);
  w.u32(r.origin);
  w.u8(r.hops);
  if (!r.aggregate()) w.u8(r.inner_type);
  w.u8(r.queue);
  write_node_list(w, r.path);
  w.var_bytes(r.response);
}

}  // namespace

std::vector<net::NodeId> NodeList::to_vector() const {
  std::vector<net::NodeId> nodes(size());
  for (size_t i = 0; i < nodes.size(); ++i) nodes[i] = (*this)[i];
  return nodes;
}

Bytes CollectFlood::serialize() const {
  ByteWriter w;
  w.reserve(4 + 4 + node_list_size(targets) + 4 + request.size());
  w.u32(flood);
  w.u8(ttl);
  w.u8(depth);
  w.u8(flags);
  w.u8(inner_type);
  write_node_list(w, targets);
  w.var_bytes(request);
  return w.take();
}

std::optional<CollectFlood> CollectFlood::deserialize(ByteView data) {
  const auto view = FloodView::parse(data);
  if (!view) return std::nullopt;
  return CollectFlood{view->flood,
                      view->ttl,
                      view->depth,
                      view->flags,
                      view->inner_type,
                      view->targets.to_vector(),
                      Bytes(view->request.begin(), view->request.end())};
}

std::optional<FloodView> FloodView::parse(ByteView body) {
  ByteReader r(body);
  FloodView f;
  f.body_ = body;
  f.flood = r.u32();
  f.ttl = r.u8();
  f.depth = r.u8();
  f.flags = r.u8();
  f.inner_type = r.u8();
  const auto targets = read_node_list(r);
  if (!targets) return std::nullopt;
  f.targets = *targets;
  f.request = r.view(r.u32());
  if (!r.done()) return std::nullopt;
  return f;
}

bool FloodView::serves(net::NodeId node) const {
  for (size_t i = 0; i < targets.size(); ++i) {
    const net::NodeId target = targets[i];
    if (target == kEveryone || target == node) return true;
  }
  return false;
}

Bytes FloodView::forward_frame(uint8_t next_ttl, uint8_t next_depth) const {
  Bytes out = frame_relay(RelayMsg::kCollectFlood, body_);
  out[kTagBytes + kFloodTtlAt] = next_ttl;
  out[kTagBytes + kFloodDepthAt] = next_depth;
  return out;
}

Bytes RelayReport::serialize() const {
  ByteWriter w;
  w.reserve(report_body_size(*this));
  write_report_body(w, *this);
  return w.take();
}

std::optional<RelayReport> RelayReport::deserialize(RelayMsg kind,
                                                    ByteView data) {
  const auto view = ReportView::parse(kind, data);
  if (!view) return std::nullopt;
  return RelayReport{view->kind,
                     view->flood,
                     view->origin,
                     view->hops,
                     view->inner_type,
                     view->queue,
                     view->path.to_vector(),
                     Bytes(view->response.begin(), view->response.end())};
}

Bytes RelayReport::frame() const {
  ByteWriter w;
  w.reserve(kTagBytes + report_body_size(*this));
  w.u8(static_cast<uint8_t>(kind));
  write_report_body(w, *this);
  return w.take();
}

std::optional<ReportView> ReportView::parse(RelayMsg kind, ByteView body) {
  if (kind != RelayMsg::kRelayReport && kind != RelayMsg::kAggregateReport) {
    return std::nullopt;
  }
  ByteReader r(body);
  ReportView v;
  v.body_ = body;
  v.kind = kind;
  v.flood = r.u32();
  v.origin = r.u32();
  v.hops = r.u8();
  if (!v.aggregate()) v.inner_type = r.u8();
  v.queue = r.u8();
  const auto path = read_node_list(r);
  if (!path) return std::nullopt;
  v.path = *path;
  v.response = r.view(r.u32());
  if (!r.done()) return std::nullopt;
  return v;
}

Bytes ReportView::relay_frame(net::NodeId self, uint8_t next_queue) const {
  const size_t queue_at = kReportHopsAt + (aggregate() ? 1 : 2);
  const size_t count_at = queue_at + 1;
  const size_t path_end = count_at + 4 + 4 * path.size();
  Bytes out(kTagBytes + body_.size() + 4);
  out[0] = static_cast<uint8_t>(kind);
  uint8_t* const frame_body = out.data() + kTagBytes;
  std::copy(body_.begin(), body_.begin() + path_end, frame_body);
  store_le32(frame_body + path_end, self);
  std::copy(body_.begin() + path_end, body_.end(), frame_body + path_end + 4);
  frame_body[kReportHopsAt] = static_cast<uint8_t>(hops + 1);
  frame_body[queue_at] = next_queue;
  store_le32(frame_body + count_at, static_cast<uint32_t>(path.size() + 1));
  return out;
}

Bytes ScopedRequest::serialize() const {
  ByteWriter w;
  w.u32(flood);
  w.u8(inner_type);
  write_node_list(w, route);
  w.var_bytes(request);
  return w.take();
}

std::optional<ScopedRequest> ScopedRequest::deserialize(ByteView data) {
  ByteReader r(data);
  ScopedRequest req;
  req.flood = r.u32();
  req.inner_type = r.u8();
  const auto route = read_node_list(r);
  if (!route) return std::nullopt;
  req.route = route->to_vector();
  req.request = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return req;
}

Bytes ScopedNak::serialize() const {
  ByteWriter w;
  w.u32(flood);
  w.u32(target);
  return w.take();
}

std::optional<ScopedNak> ScopedNak::deserialize(ByteView data) {
  ByteReader r(data);
  ScopedNak nak;
  nak.flood = r.u32();
  nak.target = r.u32();
  if (!r.done()) return std::nullopt;
  return nak;
}

Bytes frame_relay(RelayMsg type, ByteView body) {
  ByteWriter w;
  w.reserve(kTagBytes + body.size());
  w.u8(static_cast<uint8_t>(type));
  w.raw(body);
  return w.take();
}

std::optional<std::pair<RelayMsg, ByteView>> unframe_relay(ByteView data) {
  if (data.empty()) return std::nullopt;
  const uint8_t tag = data[0];
  if (tag < static_cast<uint8_t>(RelayMsg::kCollectFlood) ||
      tag > static_cast<uint8_t>(RelayMsg::kAggregateReport)) {
    return std::nullopt;
  }
  return std::make_pair(static_cast<RelayMsg>(tag), data.subspan(1));
}

}  // namespace erasmus::overlay
