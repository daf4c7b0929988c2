// Wire-protocol contract tests: encode/decode round trips for every frame
// version (v1 single-model, v2 with the model-name routing block, v4 with
// the deadline budget and payload-encoding byte), every decode validation
// rule (magic, version — the retired v3 included — type, length
// bounds/alignment, name bound, encoding bound, CRC), the published CRC-32
// test vector, the incremental try_extract used by the server's event loop,
// the frame version Client::send picks, and framed I/O through
// Client::receive_frame over the in-process socketpair transport (multiple
// frames, clean EOF, mid-frame death).

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "serve/server.hpp"

namespace dp::serve {
namespace {

/// The model a framing-only Client is built around: receive_frame never
/// decodes a payload, and send quantizes into its input format.
std::shared_ptr<const runtime::Model> small_model() {
  static const std::shared_ptr<const runtime::Model> model = runtime::Model::create(
      nn::quantize(nn::Mlp({6, 16, 8, 3}, /*seed=*/42), num::Format{num::PositFormat{8, 0}}));
  return model;
}

/// A Client reading the far end of a socketpair: the framed reader under test.
Client frame_reader(FdStream stream) { return Client(small_model(), std::move(stream), ""); }

Frame sample_request() {
  Frame f;
  f.type = FrameType::kRequest;
  f.status = Status::kOk;
  f.request_id = 0x1122334455667788ull;
  f.payload = {0x00u, 0x7fu, 0x80u, 0xffu, 0xdeadbeefu};
  return f;
}

Frame sample_v2_request() {
  Frame f = sample_request();
  f.version = kProtocolV2;
  f.model = "iris-posit8";
  return f;
}

Frame sample_v4_request() {
  Frame f = sample_v2_request();
  f.version = kProtocolV4;
  f.deadline_us = 0x0102030405060708ull;
  f.payload_encoding = kPayloadEncodingCodec;
  return f;
}

/// Recompute the trailing CRC after a deliberate header edit, so the test
/// exercises exactly one validation rule.
void refresh_crc(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t c = crc32(std::span(bytes).first(bytes.size() - 4));
  std::memcpy(bytes.data() + bytes.size() - 4, &c, 4);
}

TEST(ServeProtocol, EncodeDecodeRoundTripsRequestAndResponse) {
  const Frame req = sample_request();
  EXPECT_EQ(decode(encode(req)), req);

  Frame resp;
  resp.type = FrameType::kResponse;
  resp.status = Status::kQueueFull;
  resp.request_id = 7;
  resp.payload = {};  // error responses carry no payload
  EXPECT_EQ(decode(encode(resp)), resp);
}

TEST(ServeProtocol, FrameLayoutMatchesSpec) {
  // Pin the byte-level layout documented in docs/serving.md: any change here
  // is a wire-format break and needs a new version constant (that is how
  // kProtocolV2 was added beside kProtocolV1).
  const Frame req = sample_request();
  const std::vector<std::uint8_t> bytes = encode(req);
  ASSERT_EQ(bytes.size(), kHeaderBytes + req.payload.size() * 4 + kTrailerBytes);
  EXPECT_EQ(bytes[0], 'D');
  EXPECT_EQ(bytes[1], 'P');
  EXPECT_EQ(bytes[2], 'S');
  EXPECT_EQ(bytes[3], 'V');
  EXPECT_EQ(bytes[4], kProtocolV1);
  EXPECT_EQ(bytes[5], static_cast<std::uint8_t>(FrameType::kRequest));
  EXPECT_EQ(bytes[6], 0);  // status lo
  EXPECT_EQ(bytes[7], 0);  // status hi
  EXPECT_EQ(bytes[8], 0x88);   // request id, little-endian
  EXPECT_EQ(bytes[15], 0x11);
  EXPECT_EQ(bytes[16], 20);  // payload length = 5 * 4 bytes, little-endian
  EXPECT_EQ(bytes[17], 0);
  EXPECT_EQ(bytes[20], 0x00);  // first pattern, little-endian u32
  EXPECT_EQ(bytes[24], 0x7f);
}

TEST(ServeProtocol, Crc32MatchesPublishedTestVector) {
  // The canonical IEEE 802.3 check value: crc32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(ServeProtocol, DecodeRejectsCorruption) {
  const std::vector<std::uint8_t> good = encode(sample_request());

  // Any flipped payload or header bit fails the CRC.
  for (const std::size_t at : {std::size_t{8}, std::size_t{21}, good.size() - 5}) {
    std::vector<std::uint8_t> bad = good;
    bad[at] ^= 0x40;
    EXPECT_THROW(decode(bad), ProtocolError) << "flipped byte " << at;
  }
  // A flipped CRC byte too.
  {
    std::vector<std::uint8_t> bad = good;
    bad.back() ^= 1;
    EXPECT_THROW(decode(bad), ProtocolError);
  }
}

TEST(ServeProtocol, DecodeRejectsBadMagicVersionTypeAndLengths) {
  const Frame req = sample_request();
  {
    std::vector<std::uint8_t> bad = encode(req);
    bad[0] = 'X';
    EXPECT_THROW(decode(bad), ProtocolError);
  }
  {  // unsupported version, CRC recomputed so only the version rule fires
    std::vector<std::uint8_t> bad = encode(req);
    bad[4] = kProtocolV4 + 1;
    refresh_crc(bad);
    EXPECT_THROW(decode(bad), ProtocolError);
  }
  {  // the retired v3 layout (v4 without the encoding byte) is rejected by
     // both readers
    Frame v4 = sample_v4_request();
    v4.payload_encoding = kPayloadEncodingRaw;
    std::vector<std::uint8_t> v3 = encode(v4);
    v3.erase(v3.begin() + kHeaderBytes + kDeadlineBytes);
    v3[4] = 3;
    refresh_crc(v3);
    EXPECT_THROW(decode(v3), ProtocolError);
    std::size_t consumed = 0;
    EXPECT_THROW(try_extract(v3, consumed), ProtocolError);
    Frame f = sample_v2_request();
    f.version = 3;
    EXPECT_THROW(encode(f), ProtocolError);
  }
  {  // unknown frame type
    std::vector<std::uint8_t> bad = encode(req);
    bad[5] = 9;
    refresh_crc(bad);
    EXPECT_THROW(decode(bad), ProtocolError);
  }
  {  // the retired in-band metrics type (3) is rejected by both readers
    std::vector<std::uint8_t> bad = encode(req);
    bad[5] = 3;
    refresh_crc(bad);
    EXPECT_THROW(decode(bad), ProtocolError);
    std::size_t consumed = 0;
    EXPECT_THROW(try_extract(bad, consumed), ProtocolError);
  }
  {  // status 7 is kTimeout, the client's own verdict: never on the wire
    std::vector<std::uint8_t> bad = encode(req);
    bad[6] = 7;
    refresh_crc(bad);
    EXPECT_THROW(decode(bad), ProtocolError);
    std::size_t consumed = 0;
    EXPECT_THROW(try_extract(bad, consumed), ProtocolError);
    Frame f = req;
    f.status = Status::kTimeout;
    EXPECT_THROW(encode(f), ProtocolError);
  }
  {  // status 0x0100: the high byte of the u16 is checked too
    std::vector<std::uint8_t> bad = encode(req);
    bad[7] = 0x01;
    refresh_crc(bad);
    EXPECT_THROW(decode(bad), ProtocolError);
    std::size_t consumed = 0;
    EXPECT_THROW(try_extract(bad, consumed), ProtocolError);
    Frame f = req;
    f.status = static_cast<Status>(0x0100);
    EXPECT_THROW(encode(f), ProtocolError);
  }
  {  // truncated: shorter than header + CRC
    const std::vector<std::uint8_t> bytes = encode(req);
    EXPECT_THROW(decode(std::span(bytes).first(kHeaderBytes - 1)), ProtocolError);
  }
  {  // length field disagrees with the actual frame size
    std::vector<std::uint8_t> bad = encode(req);
    bad[16] = 4;  // claims 1 element; buffer still holds 5
    EXPECT_THROW(decode(bad), ProtocolError);
  }
  {  // oversize payload refused before any allocation
    Frame huge = req;
    huge.payload.assign(kMaxPayloadBytes / 4 + 1, 0);
    EXPECT_THROW(encode(huge), ProtocolError);
  }
}

TEST(ServeProtocol, V2EncodeDecodeRoundTripsModelName) {
  const Frame req = sample_v2_request();
  EXPECT_EQ(decode(encode(req)), req);

  // Empty name is legal in v2 (routes to the default entry, like v1).
  Frame anon = req;
  anon.model.clear();
  EXPECT_EQ(decode(encode(anon)), anon);

  // Longest legal name.
  Frame long_name = req;
  long_name.model.assign(kMaxModelNameBytes, 'm');
  EXPECT_EQ(decode(encode(long_name)), long_name);
}

TEST(ServeProtocol, V2FrameLayoutMatchesSpec) {
  // Pin the v2 byte-level layout documented in docs/serving.md: identical to
  // v1 through offset 19, then the name block, then the payload, CRC last.
  const Frame req = sample_v2_request();
  const std::vector<std::uint8_t> bytes = encode(req);
  const std::size_t name_len = req.model.size();
  ASSERT_EQ(bytes.size(),
            kHeaderBytes + 1 + name_len + req.payload.size() * 4 + kTrailerBytes);
  EXPECT_EQ(bytes[0], 'D');
  EXPECT_EQ(bytes[4], kProtocolV2);
  EXPECT_EQ(bytes[5], static_cast<std::uint8_t>(FrameType::kRequest));
  EXPECT_EQ(bytes[16], 20);  // payload length counts payload only, not the name
  EXPECT_EQ(bytes[20], name_len);
  EXPECT_EQ(bytes[21], 'i');  // "iris-posit8"
  EXPECT_EQ(bytes[21 + name_len - 1], '8');
  EXPECT_EQ(bytes[21 + name_len], 0x00);  // first payload pattern
  EXPECT_EQ(bytes[21 + name_len + 4], 0x7f);
  // CRC covers everything before it, name block included.
  const std::uint32_t want = crc32(std::span(bytes).first(bytes.size() - 4));
  EXPECT_EQ(bytes[bytes.size() - 4], want & 0xff);
}

TEST(ServeProtocol, EncodeRejectsIllegalVersionNameCombinations) {
  {  // v1 cannot carry a name
    Frame bad = sample_request();
    bad.model = "sneaky";
    EXPECT_THROW(encode(bad), ProtocolError);
  }
  {  // name over the one-byte-length bound
    Frame bad = sample_v2_request();
    bad.model.assign(kMaxModelNameBytes + 1, 'x');
    EXPECT_THROW(encode(bad), ProtocolError);
  }
  {  // unknown version
    Frame bad = sample_request();
    bad.version = 7;
    EXPECT_THROW(encode(bad), ProtocolError);
  }
}

TEST(ServeProtocol, V3EncodeDecodeRoundTripsDeadlineBudget) {
  // A deadline travels in a v4 frame with the raw encoding.
  Frame req = sample_v4_request();
  req.payload_encoding = kPayloadEncodingRaw;
  EXPECT_EQ(decode(encode(req)), req);

  // Zero budget ("no deadline") and empty name are both legal.
  Frame bare = req;
  bare.deadline_us = 0;
  bare.model.clear();
  EXPECT_EQ(decode(encode(bare)), bare);
}

TEST(ServeProtocol, V1AndV2EncodingsArePinnedUnchangedByV3) {
  // Deadlines were added WITHOUT touching the older layouts: a deadline-free
  // v1/v2 frame must encode to exactly the bytes it always did (no deadline
  // field sneaking in), and a nonzero budget on them is an encode-time
  // error, not a silent format drift.
  const std::vector<std::uint8_t> v1 = encode(sample_request());
  EXPECT_EQ(v1.size(), kHeaderBytes + 5 * 4 + kTrailerBytes);
  EXPECT_EQ(v1[4], kProtocolV1);

  const Frame v2f = sample_v2_request();
  const std::vector<std::uint8_t> v2 = encode(v2f);
  EXPECT_EQ(v2.size(), kHeaderBytes + 1 + v2f.model.size() + 5 * 4 + kTrailerBytes);
  EXPECT_EQ(v2[kHeaderBytes], v2f.model.size());  // name length right after header

  {  // v1 cannot carry a deadline budget
    Frame bad = sample_request();
    bad.deadline_us = 1;
    EXPECT_THROW(encode(bad), ProtocolError);
  }
  {  // v2 cannot either
    Frame bad = sample_v2_request();
    bad.deadline_us = 1;
    EXPECT_THROW(encode(bad), ProtocolError);
  }
}

TEST(ServeProtocol, DecodeRejectsMalformedV3Frames) {
  // Deadline-carrying (v4) frames, cut and corrupted around the budget.
  Frame deadline_frame = sample_v4_request();
  deadline_frame.payload_encoding = kPayloadEncodingRaw;
  const std::vector<std::uint8_t> good = encode(deadline_frame);
  {  // truncated to the fixed header: deadline + name blocks missing
    EXPECT_THROW(decode(std::span(good).first(kHeaderBytes + kTrailerBytes)),
                 ProtocolError);
  }
  for (std::size_t cut = 1; cut < kDeadlineBytes; ++cut) {
    // truncated inside the deadline field: no verdict from try_extract (more
    // bytes may come), a ProtocolError from decode
    const std::span<const std::uint8_t> head = std::span(good).first(kHeaderBytes + cut);
    std::size_t consumed = 0;
    EXPECT_EQ(try_extract(head, consumed), std::nullopt) << "cut " << cut;
    EXPECT_THROW(decode(head), ProtocolError) << "cut " << cut;
  }
  {  // truncated mid-payload: total length disagrees with the length fields
    EXPECT_THROW(decode(std::span(good).first(good.size() - 3)), ProtocolError);
  }
  {  // a flipped deadline byte fails the CRC (the budget is covered)
    std::vector<std::uint8_t> bad = good;
    bad[kHeaderBytes + 2] ^= 0x10;
    EXPECT_THROW(decode(bad), ProtocolError);
  }
  {  // oversize name length byte rejected before the CRC
    std::vector<std::uint8_t> bad = good;
    bad[kHeaderBytes + kDeadlineBytes + 1] = kMaxModelNameBytes + 1;
    refresh_crc(bad);
    EXPECT_THROW(decode(bad), ProtocolError);
  }
}

TEST(ServeProtocol, DecodeRejectsMalformedV2Frames) {
  const std::vector<std::uint8_t> good = encode(sample_v2_request());
  {  // truncated to the fixed header: the name block is missing
    EXPECT_THROW(decode(std::span(good).first(kHeaderBytes + kTrailerBytes)),
                 ProtocolError);
  }
  {  // truncated mid-name: total length disagrees with the length fields
    EXPECT_THROW(decode(std::span(good).first(good.size() - 3)), ProtocolError);
  }
  {  // name length byte beyond kMaxModelNameBytes, rejected before the CRC
    std::vector<std::uint8_t> bad = good;
    bad[kHeaderBytes] = kMaxModelNameBytes + 1;
    refresh_crc(bad);
    EXPECT_THROW(decode(bad), ProtocolError);
  }
  {  // name length byte that disagrees with the actual frame size
    std::vector<std::uint8_t> bad = good;
    bad[kHeaderBytes] = 3;
    refresh_crc(bad);
    EXPECT_THROW(decode(bad), ProtocolError);
  }
  {  // a flipped name byte fails the CRC (the name is covered)
    std::vector<std::uint8_t> bad = good;
    bad[kHeaderBytes + 1] ^= 0x20;
    EXPECT_THROW(decode(bad), ProtocolError);
  }
}

TEST(ServeProtocol, V4EncodeDecodeRoundTripsPayloadEncoding) {
  const Frame req = sample_v4_request();
  EXPECT_EQ(decode(encode(req)), req);

  // Raw encoding, zero budget and empty name are all legal in v4.
  Frame bare = req;
  bare.payload_encoding = kPayloadEncodingRaw;
  bare.deadline_us = 0;
  bare.model.clear();
  EXPECT_EQ(decode(encode(bare)), bare);
}

TEST(ServeProtocol, V4FrameLayoutMatchesSpec) {
  // Pin the v4 byte-level layout documented in docs/serving.md: identical to
  // v1 through offset 19, then the 8-byte deadline budget (u64 LE), then the
  // payload-encoding byte, then the name block, then the payload, CRC last.
  const Frame req = sample_v4_request();
  const std::vector<std::uint8_t> bytes = encode(req);
  const std::size_t name_len = req.model.size();
  ASSERT_EQ(bytes.size(), kHeaderBytes + kDeadlineBytes + 1 + 1 + name_len +
                              req.payload.size() * 4 + kTrailerBytes);
  EXPECT_EQ(bytes[0], 'D');
  EXPECT_EQ(bytes[4], kProtocolV4);
  EXPECT_EQ(bytes[5], static_cast<std::uint8_t>(FrameType::kRequest));
  EXPECT_EQ(bytes[16], 20);    // payload length counts payload only
  EXPECT_EQ(bytes[20], 0x08);  // deadline budget, little-endian u64
  EXPECT_EQ(bytes[27], 0x01);
  EXPECT_EQ(bytes[28], kPayloadEncodingCodec);
  EXPECT_EQ(bytes[29], name_len);
  EXPECT_EQ(bytes[30], 'i');  // "iris-posit8"
  EXPECT_EQ(bytes[30 + name_len - 1], '8');
  EXPECT_EQ(bytes[30 + name_len], 0x00);  // first payload pattern
  EXPECT_EQ(bytes[30 + name_len + 4], 0x7f);
  // CRC covers everything before it, deadline and encoding bytes included.
  const std::uint32_t want = crc32(std::span(bytes).first(bytes.size() - 4));
  EXPECT_EQ(bytes[bytes.size() - 4], want & 0xff);
}

TEST(ServeProtocol, V1ToV3EncodingsArePinnedUnchangedByV4) {
  // v4 landed WITHOUT touching the older layouts: v1/v2 frames must encode
  // to exactly the sizes (and field positions) they always had — no encoding
  // byte sneaking in — and a nonzero payload_encoding on them is an
  // encode-time error, not a silent format drift.
  const std::vector<std::uint8_t> v1 = encode(sample_request());
  EXPECT_EQ(v1.size(), kHeaderBytes + 5 * 4 + kTrailerBytes);

  const Frame v2f = sample_v2_request();
  const std::vector<std::uint8_t> v2 = encode(v2f);
  EXPECT_EQ(v2.size(), kHeaderBytes + 1 + v2f.model.size() + 5 * 4 + kTrailerBytes);
  EXPECT_EQ(v2[kHeaderBytes], v2f.model.size());  // name len, not encoding

  for (Frame bad : {sample_request(), sample_v2_request()}) {
    bad.payload_encoding = kPayloadEncodingCodec;
    EXPECT_THROW(encode(bad), ProtocolError) << "version " << int(bad.version);
  }
}

TEST(ServeProtocol, V4RejectsUnknownPayloadEncoding) {
  {  // encode-side: the Frame field is bounded
    Frame bad = sample_v4_request();
    bad.payload_encoding = 2;
    EXPECT_THROW(encode(bad), ProtocolError);
  }
  {  // decode-side: a hostile encoding byte is rejected even with a good CRC
    std::vector<std::uint8_t> bad = encode(sample_v4_request());
    bad[kHeaderBytes + kDeadlineBytes] = 2;
    refresh_crc(bad);
    EXPECT_THROW(decode(bad), ProtocolError);
  }
}

TEST(ServeProtocol, TryExtractHandlesPartialAndBackToBackFrames) {
  const Frame v1 = sample_request();
  const Frame v2 = sample_v2_request();
  std::vector<std::uint8_t> wire = encode(v1);
  const std::vector<std::uint8_t> second = encode(v2);
  wire.insert(wire.end(), second.begin(), second.end());

  // Byte-at-a-time: nothing extracts until the first frame completes.
  std::size_t consumed = 0;
  for (std::size_t have = 0; have < encode(v1).size(); ++have) {
    EXPECT_EQ(try_extract(std::span(wire).first(have), consumed), std::nullopt)
        << "at " << have << " bytes";
  }
  // The full buffer yields both frames, back to back.
  std::span<const std::uint8_t> rest(wire);
  std::optional<Frame> first = try_extract(rest, consumed);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, v1);
  rest = rest.subspan(consumed);
  std::optional<Frame> next = try_extract(rest, consumed);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, v2);
  EXPECT_EQ(consumed, rest.size());
  EXPECT_EQ(try_extract(rest.subspan(consumed), consumed), std::nullopt);
}

TEST(ServeProtocol, TryExtractFailsFastOnGarbageWithoutWaitingForLength) {
  // A bad magic must throw as soon as the header is present — an event-loop
  // connection must not sit "waiting for more bytes" of a frame that will
  // never make sense.
  std::vector<std::uint8_t> garbage(kHeaderBytes, 0xA5);
  std::size_t consumed = 0;
  EXPECT_THROW(try_extract(garbage, consumed), ProtocolError);

  // Short garbage is indistinguishable from a partial header: no verdict.
  EXPECT_EQ(try_extract(std::span(garbage).first(kHeaderBytes - 1), consumed),
            std::nullopt);

  // A v2 header promising an oversize name fails at the name-length byte.
  std::vector<std::uint8_t> bad = encode(sample_v2_request());
  bad[kHeaderBytes] = 0xff;
  EXPECT_THROW(try_extract(bad, consumed), ProtocolError);
}

TEST(ServeProtocol, ClientSendPicksTheSmallestFrameThatCarriesTheRequest) {
  // v1 for the default entry, v2 for a named one, and v4 with the raw
  // encoding as soon as a deadline rides along (v4 with the codec encoding
  // when compressing).
  const std::vector<double> x(small_model()->input_dim(), 0.5);
  auto [a, b] = local_stream_pair();
  auto [c, d] = local_stream_pair();
  Client plain = frame_reader(std::move(a));
  Client named(small_model(), std::move(c), "m");
  Client reader = frame_reader(std::move(b));
  Client named_reader = frame_reader(std::move(d));

  plain.send(x);
  std::optional<Frame> f = reader.receive_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->version, kProtocolV1);

  plain.send(x, /*deadline_budget_us=*/500);
  f = reader.receive_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->version, kProtocolV4);
  EXPECT_EQ(f->payload_encoding, kPayloadEncodingRaw);
  EXPECT_EQ(f->deadline_us, 500u);
  EXPECT_TRUE(f->model.empty());
  EXPECT_EQ(f->payload.size(), x.size());

  named.send(x);
  f = named_reader.receive_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->version, kProtocolV2);
  EXPECT_EQ(f->model, "m");

  named.send(x, /*deadline_budget_us=*/700);
  f = named_reader.receive_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->version, kProtocolV4);
  EXPECT_EQ(f->payload_encoding, kPayloadEncodingRaw);
  EXPECT_EQ(f->deadline_us, 700u);
  EXPECT_EQ(f->model, "m");

  ClientOptions compress;
  compress.compress = true;
  plain.set_options(compress);
  plain.send(x);
  f = reader.receive_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->version, kProtocolV4);
  EXPECT_EQ(f->payload_encoding, kPayloadEncodingCodec);
  EXPECT_EQ(f->deadline_us, 0u);
}

TEST(ServeProtocol, ReadFrameSpeaksBothVersionsOverTheWire) {
  auto [a, b] = local_stream_pair();
  const Frame v1 = sample_request();
  const Frame v2 = sample_v2_request();
  write_frame(a, v1);
  write_frame(a, v2);
  a.shutdown_write();
  Client reader = frame_reader(std::move(b));
  EXPECT_EQ(reader.receive_frame(), v1);
  EXPECT_EQ(reader.receive_frame(), v2);
  EXPECT_EQ(reader.receive_frame(), std::nullopt);
}

TEST(ServeProtocol, FramedIoOverLocalPairDeliversInOrderThenCleanEof) {
  auto [a, b] = local_stream_pair();
  Frame first = sample_request();
  Frame second = sample_request();
  second.request_id = 2;
  second.type = FrameType::kResponse;
  second.status = Status::kShutdown;
  second.payload.clear();

  write_frame(a, first);
  write_frame(a, second);
  a.shutdown_write();

  Client reader = frame_reader(std::move(b));
  EXPECT_EQ(reader.receive_frame(), first);
  EXPECT_EQ(reader.receive_frame(), second);
  EXPECT_EQ(reader.receive_frame(), std::nullopt);  // clean EOF on a frame boundary
}

TEST(ServeProtocol, StreamDyingMidFrameIsATransportError) {
  auto [a, b] = local_stream_pair();
  const std::vector<std::uint8_t> bytes = encode(sample_request());
  a.write_all(bytes.data(), 10);  // half a header, then the peer vanishes
  a.close();
  Client reader = frame_reader(std::move(b));
  EXPECT_THROW(reader.receive_frame(), TransportError);
}

TEST(ServeProtocol, GarbageBytesAreAProtocolError) {
  auto [a, b] = local_stream_pair();
  std::vector<std::uint8_t> garbage(64, 0xA5);
  a.write_all(garbage.data(), garbage.size());
  Client reader = frame_reader(std::move(b));
  EXPECT_THROW(reader.receive_frame(), ProtocolError);
}

TEST(ServeProtocol, LargePayloadRoundTripsThroughTheSocketBuffer) {
  // Bigger than a typical socket buffer chunk: exercises the partial
  // read/write loops. A writer thread keeps the pipe drained.
  Frame big;
  big.type = FrameType::kResponse;
  big.request_id = 99;
  big.payload.resize(kMaxPayloadBytes / 4);
  for (std::size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  auto [a, b] = local_stream_pair();
  std::thread writer([&] { write_frame(a, big); });
  Client reader = frame_reader(std::move(b));
  const std::optional<Frame> got = reader.receive_frame();
  writer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, big);
}

}  // namespace
}  // namespace dp::serve
