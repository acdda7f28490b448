#include "overlay/wire.h"

#include "common/serde.h"

namespace erasmus::overlay {

namespace {

void write_node_list(ByteWriter& w, const std::vector<net::NodeId>& nodes) {
  w.u32(static_cast<uint32_t>(nodes.size()));
  for (const net::NodeId node : nodes) w.u32(node);
}

std::optional<std::vector<net::NodeId>> read_node_list(ByteReader& r) {
  const uint32_t count = r.u32();
  // Each entry costs 4 bytes, so a count the remaining input cannot cover
  // is malformed -- reject before reserving anything (adversarial frames
  // must not drive allocation).
  if (!r.ok() || count > r.remaining() / 4) return std::nullopt;
  std::vector<net::NodeId> nodes;
  nodes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) nodes.push_back(r.u32());
  if (!r.ok()) return std::nullopt;
  return nodes;
}

}  // namespace

Bytes CollectFlood::serialize() const {
  ByteWriter w;
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
  ByteReader r(data);
  CollectFlood f;
  f.flood = r.u32();
  f.ttl = r.u8();
  f.depth = r.u8();
  f.flags = r.u8();
  f.inner_type = r.u8();
  auto targets = read_node_list(r);
  if (!targets) return std::nullopt;
  f.targets = std::move(*targets);
  f.request = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return f;
}

Bytes RelayReport::serialize() const {
  ByteWriter w;
  w.u32(flood);
  w.u32(origin);
  w.u8(hops);
  if (!aggregate()) w.u8(inner_type);
  w.u8(queue);
  write_node_list(w, path);
  w.var_bytes(response);
  return w.take();
}

std::optional<RelayReport> RelayReport::deserialize(RelayMsg kind,
                                                    ByteView data) {
  if (kind != RelayMsg::kRelayReport && kind != RelayMsg::kAggregateReport) {
    return std::nullopt;
  }
  ByteReader r(data);
  RelayReport report;
  report.kind = kind;
  report.flood = r.u32();
  report.origin = r.u32();
  report.hops = r.u8();
  if (!report.aggregate()) report.inner_type = r.u8();
  report.queue = r.u8();
  auto path = read_node_list(r);
  if (!path) return std::nullopt;
  report.path = std::move(*path);
  report.response = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return report;
}

Bytes RelayReport::frame() const { return frame_relay(kind, serialize()); }

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
  auto route = read_node_list(r);
  if (!route) return std::nullopt;
  req.route = std::move(*route);
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
