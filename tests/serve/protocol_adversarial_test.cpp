// Adversarial framing tests: a table-driven corpus of v1 + v2 frames fed
// through try_extract byte-at-a-time and split at EVERY boundary, plus
// truncation, oversize, and exhaustive single-bit-flip corruption. The
// properties pinned here are what make the server's read loop safe against
// a hostile peer: no over-read (consumed == 0 until a whole frame is
// present), no spurious frame (a partial or corrupted frame never decodes),
// and deterministic drop (corruption is a ProtocolError or a stall, never a
// wrong frame). The wire constants are pinned — they are contracts with
// out-of-process clients.

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace dp::serve {
namespace {

struct CorpusEntry {
  const char* label;
  Frame frame;
};

/// The corpus: one of each frame shape the protocol can carry.
std::vector<CorpusEntry> corpus() {
  std::vector<CorpusEntry> out;
  {
    Frame f;
    f.type = FrameType::kRequest;
    f.request_id = 1;
    f.payload = {0u, 1u, 0xffffffffu, 0x12345678u};
    out.push_back({"v1 request", f});
  }
  {
    Frame f;
    f.type = FrameType::kRequest;
    f.request_id = 0xdeadbeefcafef00dull;
    out.push_back({"v1 request, empty payload", f});
  }
  {
    Frame f;
    f.type = FrameType::kResponse;
    f.status = Status::kNotFound;
    f.request_id = 7;
    out.push_back({"v1 error response", f});
  }
  {
    Frame f;
    f.type = FrameType::kResponse;
    f.request_id = 2;
    f.payload = {42u, 43u, 44u};
    out.push_back({"v1 ok response", f});
  }
  {
    Frame f;
    f.version = kProtocolV2;
    f.type = FrameType::kRequest;
    f.request_id = 3;
    f.model = "alpha";
    f.payload = {9u, 8u};
    out.push_back({"v2 named request", f});
  }
  {
    Frame f;
    f.version = kProtocolV2;
    f.type = FrameType::kRequest;
    f.request_id = 4;
    f.payload = {5u};
    out.push_back({"v2 empty-name request", f});
  }
  {
    Frame f;
    f.version = kProtocolV2;
    f.type = FrameType::kRequest;
    f.request_id = 5;
    f.model = std::string(kMaxModelNameBytes, 'x');
    out.push_back({"v2 max-length name", f});
  }
  return out;
}

// --- pinned wire constants ---------------------------------------------------

TEST(ProtocolAdversarial, WireConstantsArePinned) {
  // These are contracts with clients in other processes and languages;
  // changing any of them is a protocol revision, not a refactor.
  EXPECT_EQ(kMaxModelNameBytes, 64u);
  EXPECT_EQ(kHeaderBytes, 20u);
  EXPECT_EQ(kTrailerBytes, 4u);
  EXPECT_EQ(kMaxPayloadBytes, 1u << 20);
  EXPECT_EQ(kFrameMagic, 0x56535044u);
  EXPECT_EQ(static_cast<std::uint8_t>(FrameType::kRequest), 1);
  EXPECT_EQ(static_cast<std::uint8_t>(FrameType::kResponse), 2);
}

// --- byte-at-a-time framing: split at every boundary -------------------------

TEST(ProtocolAdversarial, EveryPrefixOfEveryCorpusFrameNeedsMoreBytesThenDecodesExactly) {
  for (const CorpusEntry& entry : corpus()) {
    const std::vector<std::uint8_t> bytes = encode(entry.frame);
    // Grow the "received" buffer one byte at a time: every strict prefix
    // must yield nullopt with consumed == 0 (no over-read, no partial
    // consumption) and must not throw (a prefix of a valid frame is never
    // corruption).
    std::vector<std::uint8_t> recv;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      std::size_t consumed = 0xdead;
      std::optional<Frame> got;
      ASSERT_NO_THROW(got = try_extract(recv, consumed)) << entry.label << " prefix " << i;
      EXPECT_FALSE(got.has_value()) << entry.label << " prefix " << i;
      EXPECT_EQ(consumed, 0u) << entry.label << " prefix " << i;
      recv.push_back(bytes[i]);
    }
    // The complete frame decodes, consuming exactly its own bytes.
    std::size_t consumed = 0;
    const std::optional<Frame> got = try_extract(recv, consumed);
    ASSERT_TRUE(got.has_value()) << entry.label;
    EXPECT_EQ(*got, entry.frame) << entry.label;
    EXPECT_EQ(consumed, bytes.size()) << entry.label;
  }
}

TEST(ProtocolAdversarial, TwoConcatenatedFramesExtractOneAtATimeNeverSpuriously) {
  const std::vector<CorpusEntry> all = corpus();
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = 0; b < all.size(); ++b) {
      const std::vector<std::uint8_t> first = encode(all[a].frame);
      const std::vector<std::uint8_t> second = encode(all[b].frame);
      std::vector<std::uint8_t> wire = first;
      wire.insert(wire.end(), second.begin(), second.end());

      // Feed the concatenation split at every boundary: the first frame
      // appears exactly when its last byte lands — never early, never
      // consuming a byte of the second.
      for (std::size_t split = 0; split <= wire.size(); ++split) {
        const std::span<const std::uint8_t> avail(wire.data(), split);
        std::size_t consumed = 0;
        const std::optional<Frame> got = try_extract(avail, consumed);
        if (split < first.size()) {
          EXPECT_FALSE(got.has_value()) << all[a].label << "+" << all[b].label << " @" << split;
          EXPECT_EQ(consumed, 0u);
        } else {
          ASSERT_TRUE(got.has_value()) << all[a].label << "+" << all[b].label << " @" << split;
          EXPECT_EQ(*got, all[a].frame);
          EXPECT_EQ(consumed, first.size()) << "must not consume into the second frame";
        }
      }
      // After popping the first, the remainder is exactly the second frame.
      std::size_t consumed = 0;
      const std::optional<Frame> rest =
          try_extract(std::span<const std::uint8_t>(wire.data() + first.size(),
                                                    second.size()),
                      consumed);
      ASSERT_TRUE(rest.has_value());
      EXPECT_EQ(*rest, all[b].frame);
    }
  }
}

// --- corruption: every single-bit flip is a deterministic non-frame ----------

TEST(ProtocolAdversarial, EverySingleBitFlipNeverYieldsAFrame) {
  for (const CorpusEntry& entry : corpus()) {
    const std::vector<std::uint8_t> bytes = encode(entry.frame);
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      // A flipped frame must never decode: either the header check or the
      // CRC throws (deterministic drop), or a length-field flip makes the
      // reader wait for bytes that never come (nullopt — a stall the
      // write_timeout reaps, still never a wrong frame).
      std::size_t consumed = 0;
      std::optional<Frame> got;
      bool threw = false;
      try {
        got = try_extract(flipped, consumed);
      } catch (const ProtocolError&) {
        threw = true;
      }
      if (threw) continue;
      EXPECT_FALSE(got.has_value())
          << entry.label << ": bit flip at " << bit << " decoded a frame";
      EXPECT_EQ(consumed, 0u) << entry.label << " bit " << bit;
    }
  }
}

TEST(ProtocolAdversarial, TruncatedTrailingByteIsNeverAFrame) {
  // Chop the last byte: the reader must keep waiting (it cannot know the
  // stream died), and decode() on the short buffer must throw, not read
  // out of bounds.
  for (const CorpusEntry& entry : corpus()) {
    std::vector<std::uint8_t> bytes = encode(entry.frame);
    bytes.pop_back();
    std::size_t consumed = 0;
    EXPECT_FALSE(try_extract(bytes, consumed).has_value()) << entry.label;
    EXPECT_THROW(decode(bytes), ProtocolError) << entry.label;
  }
}

// --- hostile length fields fail as soon as they are visible ------------------

TEST(ProtocolAdversarial, OversizedPayloadLengthFailsAtHeaderNotAtAllocation) {
  Frame f;
  f.type = FrameType::kRequest;
  f.payload = {1u, 2u};
  std::vector<std::uint8_t> bytes = encode(f);
  // Claim kMaxPayloadBytes + 4: a hostile length must be rejected with only
  // the 20 header bytes in hand — the reader never waits for (or
  // allocates) a megabyte it was promised.
  const std::uint32_t evil = kMaxPayloadBytes + 4;
  for (int i = 0; i < 4; ++i) bytes[16 + i] = static_cast<std::uint8_t>(evil >> (8 * i));
  std::size_t consumed = 0;
  EXPECT_THROW(
      (void)try_extract(std::span<const std::uint8_t>(bytes.data(), kHeaderBytes), consumed),
      ProtocolError);
}

TEST(ProtocolAdversarial, MisalignedPayloadLengthIsRejected) {
  Frame f;
  f.type = FrameType::kRequest;
  f.payload = {1u};
  std::vector<std::uint8_t> bytes = encode(f);
  bytes[16] = 3;  // not a multiple of 4
  std::size_t consumed = 0;
  EXPECT_THROW(
      (void)try_extract(std::span<const std::uint8_t>(bytes.data(), kHeaderBytes), consumed),
      ProtocolError);
}

TEST(ProtocolAdversarial, OversizedNameLengthFailsAtTheNameByte) {
  Frame f;
  f.version = kProtocolV2;
  f.type = FrameType::kRequest;
  f.model = "m";
  f.payload = {1u};
  std::vector<std::uint8_t> bytes = encode(f);
  bytes[kHeaderBytes] = static_cast<std::uint8_t>(kMaxModelNameBytes + 1);
  // With exactly header + name-length byte in hand the bound must already
  // trip: the reader never waits for a 255-byte name it will refuse anyway.
  std::size_t consumed = 0;
  EXPECT_THROW((void)try_extract(
                   std::span<const std::uint8_t>(bytes.data(), kHeaderBytes + 1), consumed),
               ProtocolError);
}

TEST(ProtocolAdversarial, EncodeRefusesOversizedNameAndPayload) {
  Frame name_heavy;
  name_heavy.version = kProtocolV2;
  name_heavy.type = FrameType::kRequest;
  name_heavy.model = std::string(kMaxModelNameBytes + 1, 'n');
  EXPECT_THROW((void)encode(name_heavy), ProtocolError);

  Frame payload_heavy;
  payload_heavy.type = FrameType::kRequest;
  payload_heavy.payload.resize(kMaxPayloadBytes / 4 + 1);
  EXPECT_THROW((void)encode(payload_heavy), ProtocolError);
}

}  // namespace
}  // namespace dp::serve
