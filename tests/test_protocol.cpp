// Wire-format tests for the collection (Fig. 2) and on-demand (Fig. 4)
// protocols, including adversarial (malformed) inputs.
#include <gtest/gtest.h>

#include "attest/maintenance.h"
#include "attest/protocol.h"
#include "common/serde.h"
#include "seeded_fuzz.h"

namespace erasmus::attest {
namespace {

using crypto::MacAlgo;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

Measurement make_m(uint64_t t) {
  return compute_measurement(crypto::Mac(MacAlgo::kHmacSha256, test_key()),
                             bytes_of("mem"), t);
}

TEST(CollectRequest, RoundTrips) {
  const CollectRequest req{7};
  const auto back = CollectRequest::deserialize(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->k, 7u);
}

TEST(CollectRequest, RejectsWrongSize) {
  EXPECT_FALSE(CollectRequest::deserialize(Bytes{1, 2}).has_value());
  EXPECT_FALSE(CollectRequest::deserialize(Bytes(5, 0)).has_value());
}

TEST(CollectResponse, RoundTripsEmptyAndFull) {
  CollectResponse empty;
  auto back = CollectResponse::deserialize(empty.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->measurements.empty());

  CollectResponse full;
  for (uint64_t t : {30ull, 20ull, 10ull}) full.measurements.push_back(make_m(t));
  back = CollectResponse::deserialize(full.serialize());
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->measurements.size(), 3u);
  EXPECT_EQ(back->measurements[0], full.measurements[0]);
  EXPECT_EQ(back->measurements[2], full.measurements[2]);
}

TEST(CollectResponse, RejectsCountMismatch) {
  CollectResponse resp;
  resp.measurements.push_back(make_m(1));
  Bytes wire = resp.serialize();
  wire[0] = 2;  // claim two measurements but carry one
  EXPECT_FALSE(CollectResponse::deserialize(wire).has_value());
}

TEST(CollectResponse, RejectsTrailingGarbage) {
  CollectResponse resp;
  resp.measurements.push_back(make_m(1));
  Bytes wire = resp.serialize();
  wire.push_back(0xcc);
  EXPECT_FALSE(CollectResponse::deserialize(wire).has_value());
}

TEST(OdRequest, RoundTripsWithMac) {
  OdRequest req;
  req.treq = 1000;
  req.k = 5;
  req.mac = crypto::Mac::compute(MacAlgo::kHmacSha256, test_key(),
                                 OdRequest::mac_input(1000, 5));
  const auto back = OdRequest::deserialize(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->treq, 1000u);
  EXPECT_EQ(back->k, 5u);
  EXPECT_EQ(back->mac, req.mac);
}

TEST(OdRequest, MacInputBindsBothFields) {
  EXPECT_NE(OdRequest::mac_input(1, 0), OdRequest::mac_input(2, 0));
  EXPECT_NE(OdRequest::mac_input(1, 0), OdRequest::mac_input(1, 1))
      << "k must be bound so a MITM cannot change the history request";
}

TEST(OdResponse, RoundTripsFreshPlusHistory) {
  OdResponse resp;
  resp.fresh = make_m(100);
  resp.history = {make_m(90), make_m(80)};
  const auto back = OdResponse::deserialize(resp.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fresh, resp.fresh);
  ASSERT_EQ(back->history.size(), 2u);
  EXPECT_EQ(back->history[1], resp.history[1]);
}

TEST(OdResponse, PureOnDemandHasEmptyHistory) {
  OdResponse resp;
  resp.fresh = make_m(100);
  const auto back = OdResponse::deserialize(resp.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->history.empty());
}

TEST(Framing, RoundTripsAllTypes) {
  for (auto type : {MsgType::kCollectRequest, MsgType::kCollectResponse,
                    MsgType::kOdRequest, MsgType::kOdResponse}) {
    const Bytes framed = frame(type, Bytes{1, 2, 3});
    const auto back = unframe(framed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->first, type);
    EXPECT_EQ(Bytes(back->second.begin(), back->second.end()),
              (Bytes{1, 2, 3}));
  }
}

TEST(Framing, RejectsEmptyAndUnknownTags) {
  EXPECT_FALSE(unframe(Bytes{}).has_value());
  EXPECT_FALSE(unframe(Bytes{0x00, 1}).has_value());
  EXPECT_FALSE(unframe(Bytes{0x7f, 1}).has_value());
}

// Fuzz-lite property: deserializers never crash and correctly reject
// truncations of valid messages at every byte length.
class TruncationProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(TruncationProperty, EveryPrefixRejectedOrFullLength) {
  OdResponse resp;
  resp.fresh = make_m(100);
  resp.history = {make_m(90), make_m(80), make_m(70)};
  const Bytes wire = resp.serialize();
  const size_t cut = GetParam() % wire.size();
  const Bytes prefix(wire.begin(), wire.begin() + cut);
  EXPECT_FALSE(OdResponse::deserialize(prefix).has_value());
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationProperty,
                         ::testing::Values(0, 1, 7, 8, 9, 12, 44, 80, 81, 100,
                                           150, 200, 250));

TEST(Malformed, EmptyPayloadsRejectedEverywhere) {
  const Bytes empty;
  EXPECT_FALSE(CollectRequest::deserialize(empty).has_value());
  EXPECT_FALSE(CollectResponse::deserialize(empty).has_value());
  EXPECT_FALSE(OdRequest::deserialize(empty).has_value());
  EXPECT_FALSE(OdResponse::deserialize(empty).has_value());
  EXPECT_FALSE(Measurement::deserialize(empty).has_value());
  EXPECT_FALSE(unframe(empty).has_value());
}

TEST(Malformed, TypeOnlyFramesCarryEmptyBodies) {
  // A 1-byte datagram unframes to an empty body; every body parser must
  // then reject it rather than fabricate a message.
  const auto framed = unframe(Bytes{2});  // kCollectResponse, nothing else
  ASSERT_TRUE(framed.has_value());
  EXPECT_TRUE(framed->second.empty());
  EXPECT_FALSE(CollectResponse::deserialize(framed->second).has_value());
}

TEST(Malformed, OversizedCountFieldFailsFastWithoutAllocating) {
  // Claims 2^32-1 measurements but carries none: must reject on the first
  // missing record, never pre-allocate from the attacker's header.
  ByteWriter w;
  w.u32(0xFFFFFFFFu);
  EXPECT_FALSE(CollectResponse::deserialize(w.bytes()).has_value());
}

TEST(Malformed, OversizedVarLengthFieldsRejected) {
  // A measurement whose digest claims to be 2^32-1 bytes long.
  ByteWriter w;
  w.u64(/*timestamp=*/42);
  w.u32(0xFFFFFFFFu);  // digest length prefix
  w.raw(bytes_of("short"));
  EXPECT_FALSE(Measurement::deserialize(w.bytes()).has_value());

  // The same lying record embedded in a response with a sane count.
  ByteWriter resp;
  resp.u32(1);
  resp.raw(w.bytes());
  EXPECT_FALSE(CollectResponse::deserialize(resp.bytes()).has_value());

  // And an OD request whose MAC field length overruns the frame.
  ByteWriter od;
  od.u64(/*treq=*/1000);
  od.u32(/*k=*/4);
  od.u32(0x7FFFFFFFu);  // mac length prefix
  EXPECT_FALSE(OdRequest::deserialize(od.bytes()).has_value());
}

TEST(Malformed, RecordFieldsLongerThan32BytesRejected) {
  // No construction makes a digest or tag longer than 32 bytes, so such a
  // record could never verify: the decoder rejects it outright (a session
  // sees a stray datagram and recovers through its timeout).
  const auto record = [](size_t digest_len, size_t mac_len) {
    ByteWriter w;
    w.u64(/*timestamp=*/42);
    w.var_bytes(Bytes(digest_len, 0xd1));
    w.var_bytes(Bytes(mac_len, 0xa7));
    return w.take();
  };
  const auto in_response = [](const Bytes& rec) {
    ByteWriter w;
    w.u32(1);
    w.raw(rec);
    return w.take();
  };
  const auto in_od_response = [](const Bytes& rec) {
    ByteWriter w;
    w.raw(rec);
    w.u32(0);
    return w.take();
  };
  for (const auto& [digest_len, mac_len] :
       {std::pair<size_t, size_t>{33, 32}, {32, 33}}) {
    const Bytes rec = record(digest_len, mac_len);
    EXPECT_FALSE(Measurement::deserialize(rec).has_value()) << digest_len;
    EXPECT_FALSE(CollectResponse::deserialize(in_response(rec)).has_value());
    EXPECT_FALSE(OdResponse::deserialize(in_od_response(rec)).has_value());
  }
  // 32 bytes is the widest field that decodes, re-encoding to its input.
  const Bytes widest = record(32, 32);
  const auto m = Measurement::deserialize(widest);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->serialize(), widest);
  EXPECT_TRUE(CollectResponse::deserialize(in_response(widest)).has_value());
}

TEST(Malformed, OversizedKRoundTripsAsData) {
  // k is data, not a length: the full u32 range must survive the wire
  // (clamping is the prover's business, not the codec's).
  const CollectRequest req{0xFFFFFFFFu};
  const auto back = CollectRequest::deserialize(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->k, 0xFFFFFFFFu);
}

// Truncation property for CollectResponse, mirroring the OdResponse one:
// every strict prefix of a valid wire image must be rejected.
class CollectTruncationProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(CollectTruncationProperty, EveryPrefixRejected) {
  CollectResponse resp;
  resp.measurements = {make_m(30), make_m(20), make_m(10)};
  const Bytes wire = resp.serialize();
  const size_t cut = GetParam() % wire.size();
  const Bytes prefix(wire.begin(), wire.begin() + cut);
  EXPECT_FALSE(CollectResponse::deserialize(prefix).has_value());
}

INSTANTIATE_TEST_SUITE_P(Cuts, CollectTruncationProperty,
                         ::testing::Values(0, 1, 3, 4, 5, 12, 44, 80, 84, 85,
                                           120, 160, 200, 243));

TEST(Fuzz, RandomBytesNeverCrashDeserializers) {
  uint32_t x = 0xC0FFEE;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes junk((trial * 7) % 300);
    for (auto& b : junk) {
      x = x * 1664525u + 1013904223u;
      b = static_cast<uint8_t>(x >> 24);
    }
    (void)CollectRequest::deserialize(junk);
    (void)CollectResponse::deserialize(junk);
    (void)OdRequest::deserialize(junk);
    (void)OdResponse::deserialize(junk);
    (void)Measurement::deserialize(junk);
    (void)unframe(junk);
  }
  SUCCEED();
}

// Decoder fuzz: seeded mutations of one valid frame per attest decoder and
// of a serde length-prefixed field.
TEST(Fuzz, SeededMutantsNeverCrashAndAcceptedOnesReserializeExactly) {
  using fuzz::reparse;
  const std::vector<fuzz::Reparse> decoders = {
      reparse<CollectRequest>,
      reparse<CollectResponse>,
      reparse<OdRequest>,
      reparse<OdResponse>,
      reparse<Measurement>,
      reparse<MaintenanceRequest>,
      [](ByteView in) -> std::optional<Bytes> {
        const auto u = unframe(in);
        if (!u) return std::nullopt;
        return frame(u->first, u->second);
      },
      [](ByteView in) -> std::optional<Bytes> {
        ByteReader r(in);
        const Bytes field = r.var_bytes();
        if (!r.done()) return std::nullopt;
        ByteWriter w;
        w.var_bytes(field);
        return w.take();
      },
  };

  CollectResponse collect;
  collect.measurements = {make_m(30), make_m(20)};
  OdRequest od;
  od.treq = 1000;
  od.k = 2;
  od.mac = crypto::Mac::compute(MacAlgo::kHmacSha256, test_key(),
                                OdRequest::mac_input(1000, 2));
  OdResponse od_resp;
  od_resp.fresh = make_m(100);
  od_resp.history = {make_m(90)};
  MaintenanceRequest maintenance;
  maintenance.op = MaintenanceRequest::Op::kUpdate;
  maintenance.treq = 1000;
  maintenance.image = bytes_of("image");
  maintenance.mac = Bytes(32, 0x22);
  ByteWriter field;
  field.var_bytes(bytes_of("field"));
  const fuzz::Tally tally = fuzz::mutate_and_reparse(
      {CollectRequest{16}.serialize(), collect.serialize(), od.serialize(),
       od_resp.serialize(), make_m(10).serialize(), maintenance.serialize(),
       frame(MsgType::kCollectResponse, collect.serialize()), field.take()},
      decoders);
  // Neither vacuous nor a decoder that accepts anything.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_LT(tally.accepted, tally.decoded);
}

}  // namespace
}  // namespace erasmus::attest
