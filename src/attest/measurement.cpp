#include "attest/measurement.h"

namespace erasmus::attest {

namespace {

// One field: u32 length, then at most Digest::kMaxSize bytes. The length
// is attacker-controlled, so it is checked before anything is copied.
bool read_field(ByteReader& r, crypto::Digest& out) {
  const uint32_t n = r.u32();
  if (n > crypto::Digest::kMaxSize) return false;
  const ByteView bytes = r.view(n);
  if (!r.ok()) return false;
  out.assign(bytes);
  return true;
}

}  // namespace

crypto::HashAlgo hash_for(crypto::MacAlgo algo) {
  switch (algo) {
    case crypto::MacAlgo::kHmacSha1:
      return crypto::HashAlgo::kSha1;
    case crypto::MacAlgo::kHmacSha256:
      return crypto::HashAlgo::kSha256;
    case crypto::MacAlgo::kKeyedBlake2s:
      return crypto::HashAlgo::kBlake2s;
  }
  return crypto::HashAlgo::kSha256;
}

void Measurement::serialize(ByteWriter& w) const {
  w.u64(timestamp);
  w.var_bytes(digest);
  w.var_bytes(mac);
}

std::optional<Measurement> Measurement::deserialize(ByteReader& r) {
  Measurement m;
  m.timestamp = r.u64();
  if (!read_field(r, m.digest) || !read_field(r, m.mac)) return std::nullopt;
  return m;
}

Bytes Measurement::serialize() const {
  ByteWriter w;
  serialize(w);
  return w.take();
}

std::optional<Measurement> Measurement::deserialize(ByteView data) {
  ByteReader r(data);
  auto m = deserialize(r);
  if (!m || !r.done()) return std::nullopt;
  return m;
}

Measurement compute_measurement(const crypto::Mac& key, ByteView memory,
                                uint64_t t) {
  Measurement m;
  m.timestamp = t;
  crypto::Hash::digest(hash_for(key.algo()), memory, m.digest);
  // MAC input u64 t (little-endian) || H(mem_t), tagged as two parts.
  m.mac = key.tag({le64(t), m.digest});
  return m;
}

Measurement compute_measurement_protected(hw::SecurityArch& arch,
                                          crypto::MacAlgo algo,
                                          hw::RegionId attested_region,
                                          uint64_t t) {
  Measurement m;
  arch.run_protected([&](hw::SecurityArch::ProtectedContext& ctx) {
    const ByteView mem = ctx.memory().view(attested_region,
                                           /*privileged=*/true);
    m = compute_measurement(crypto::Mac(algo, ctx.key()), mem, t);
  });
  return m;
}

bool verify_measurement(const crypto::Mac& key, const Measurement& m) {
  return key.verify({le64(m.timestamp), m.digest}, m.mac);
}

}  // namespace erasmus::attest
