#include "attest/protocol.h"

#include <algorithm>

#include "common/serde.h"

namespace erasmus::attest {

Bytes CollectRequest::serialize() const {
  ByteWriter w;
  w.u32(k);
  return w.take();
}

std::optional<CollectRequest> CollectRequest::deserialize(ByteView data) {
  ByteReader r(data);
  CollectRequest req;
  req.k = r.u32();
  if (!r.done()) return std::nullopt;
  return req;
}

Bytes CollectResponse::serialize() const {
  ByteWriter w;
  size_t size = 4;
  for (const auto& m : measurements) {
    size += 8 + 4 + m.digest.size() + 4 + m.mac.size();
  }
  w.reserve(size);
  w.u32(static_cast<uint32_t>(measurements.size()));
  for (const auto& m : measurements) m.serialize(w);
  return w.take();
}

std::optional<CollectResponse> CollectResponse::deserialize(ByteView data) {
  ByteReader r(data);
  const uint32_t count = r.u32();
  CollectResponse resp;
  // The count is attacker-controlled: reserve no more records than the
  // input can hold (each takes >= 16 bytes), so a lying header fails fast
  // below without driving the allocation.
  resp.measurements.reserve(std::min<size_t>(count, r.remaining() / 16));
  for (uint32_t i = 0; i < count; ++i) {
    auto m = Measurement::deserialize(r);
    if (!m) return std::nullopt;
    resp.measurements.push_back(*m);
  }
  if (!r.done()) return std::nullopt;
  return resp;
}

Bytes OdRequest::mac_input(uint64_t treq, uint32_t k) {
  ByteWriter w;
  w.u64(treq);
  w.u32(k);
  return w.take();
}

Bytes OdRequest::serialize() const {
  ByteWriter w;
  w.u64(treq);
  w.u32(k);
  w.var_bytes(mac);
  return w.take();
}

std::optional<OdRequest> OdRequest::deserialize(ByteView data) {
  ByteReader r(data);
  OdRequest req;
  req.treq = r.u64();
  req.k = r.u32();
  req.mac = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return req;
}

Bytes OdResponse::serialize() const {
  ByteWriter w;
  fresh.serialize(w);
  w.u32(static_cast<uint32_t>(history.size()));
  for (const auto& m : history) m.serialize(w);
  return w.take();
}

std::optional<OdResponse> OdResponse::deserialize(ByteView data) {
  ByteReader r(data);
  OdResponse resp;
  auto fresh = Measurement::deserialize(r);
  if (!fresh) return std::nullopt;
  resp.fresh = *fresh;
  const uint32_t count = r.u32();
  for (uint32_t i = 0; i < count; ++i) {
    auto m = Measurement::deserialize(r);
    if (!m) return std::nullopt;
    resp.history.push_back(*m);
  }
  if (!r.done()) return std::nullopt;
  return resp;
}

Bytes frame(MsgType type, ByteView body) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(type));
  w.raw(body);
  return w.take();
}

std::optional<std::pair<MsgType, ByteView>> unframe(ByteView data) {
  if (data.empty()) return std::nullopt;
  const uint8_t tag = data[0];
  if (tag < static_cast<uint8_t>(MsgType::kCollectRequest) ||
      tag > static_cast<uint8_t>(MsgType::kOdResponse)) {
    return std::nullopt;
  }
  return std::make_pair(static_cast<MsgType>(tag), data.subspan(1));
}

}  // namespace erasmus::attest
