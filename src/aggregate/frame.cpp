#include "aggregate/frame.h"

#include <algorithm>

#include "common/serde.h"

namespace erasmus::aggregate {

namespace {

void write_members(ByteWriter& w, const std::vector<net::NodeId>& nodes) {
  w.u32(static_cast<uint32_t>(nodes.size()));
  for (const net::NodeId node : nodes) w.u32(node);
}

std::optional<std::vector<net::NodeId>> read_members(ByteReader& r) {
  const uint32_t count = r.u32();
  // 4 bytes per entry: a count the remaining input cannot cover is
  // malformed -- reject before reserving (adversarial frames must not
  // drive allocation).
  if (!r.ok() || count > r.remaining() / 4) return std::nullopt;
  std::vector<net::NodeId> nodes;
  nodes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) nodes.push_back(r.u32());
  if (!r.ok()) return std::nullopt;
  return nodes;
}

}  // namespace

Bytes AggregateFrame::serialize() const {
  ByteWriter w;
  w.raw(aggregate_mac_input(*this));
  w.var_bytes(mac);
  return w.take();
}

std::optional<AggregateFrame> AggregateFrame::deserialize(ByteView data) {
  ByteReader r(data);
  AggregateFrame f;
  f.flood = r.u32();
  f.head = r.u32();
  auto members = read_members(r);
  if (!members) return std::nullopt;
  f.members = std::move(*members);
  // Canonical member order: strictly ascending, so a bit index names
  // exactly one node and duplicate members cannot smuggle two verdicts.
  if (!std::is_sorted(f.members.begin(), f.members.end()) ||
      std::adjacent_find(f.members.begin(), f.members.end()) !=
          f.members.end()) {
    return std::nullopt;
  }
  f.bitmap = r.var_bytes();
  f.root = r.var_bytes();
  f.raw_bytes = r.u32();
  f.mac = r.var_bytes();
  if (!r.done()) return std::nullopt;
  if (f.bitmap.size() != (f.members.size() + 7) / 8) return std::nullopt;
  return f;
}

Bytes aggregate_mac_input(const AggregateFrame& frame) {
  ByteWriter w;
  w.reserve(4 + 4 + 4 + 4 * frame.members.size() + 4 + frame.bitmap.size() +
            4 + frame.root.size() + 4);
  w.u32(frame.flood);
  w.u32(frame.head);
  write_members(w, frame.members);
  w.var_bytes(frame.bitmap);
  w.var_bytes(frame.root);
  w.u32(frame.raw_bytes);
  return w.take();
}

bool verify_aggregate(const AggregateFrame& frame, const crypto::Mac& key) {
  return key.verify({aggregate_mac_input(frame)}, frame.mac);
}

}  // namespace erasmus::aggregate
