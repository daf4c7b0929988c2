// Adversarial decoder hardening: .dpnetz containers and wire payload blocks
// that are truncated, bit-flipped, or carry hostile header fields must fail
// cleanly — CodecError at the first bad byte, no over-read, no unbounded
// allocation — or, where a mutation happens to leave the decode unchanged,
// produce the bit-identical original. This binary runs under ASan/TSan in
// the CI `sanitize` job, which turns "never over-reads" from a claim into a
// checked property: every decode below reads from an exactly-sized heap
// buffer, so one byte past the end is a sanitizer failure, not luck.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "codec/container.hpp"
#include "codec/payload.hpp"
#include "codec/range_coder.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"

namespace dp::codec {
namespace {

// Small on purpose: the exhaustive truncation and bit-flip sweeps are
// O(bytes) decodes each.
nn::QuantizedNetwork tiny_network() {
  nn::Mlp net({3, 4, 2}, 77);
  std::mt19937 rng(78);
  std::uniform_real_distribution<float> u(-2.0f, 2.0f);
  for (auto& layer : net.layers()) {
    for (auto& w : layer.weights.data()) w = u(rng);
    for (auto& b : layer.bias) b = u(rng);
  }
  return nn::quantize(net, num::Format{num::PositFormat{8, 1}});
}

bool identical(const nn::QuantizedNetwork& a, const nn::QuantizedNetwork& b) {
  if (!(a.format == b.format) || a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (a.layers[l].fan_in != b.layers[l].fan_in) return false;
    if (a.layers[l].fan_out != b.layers[l].fan_out) return false;
    if (a.layers[l].activation != b.layers[l].activation) return false;
    if (a.layers[l].weights != b.layers[l].weights) return false;
    if (a.layers[l].bias != b.layers[l].bias) return false;
  }
  return true;
}

// Decode from a buffer with not one spare byte: under ASan any read past
// data.size() aborts the test run.
nn::QuantizedNetwork decode_exact(const std::vector<std::uint8_t>& data) {
  return decode_network(std::span<const std::uint8_t>(data.data(), data.size()));
}

TEST(DpnetzAdversarial, EveryTruncationFailsCleanly) {
  const nn::QuantizedNetwork q = tiny_network();
  const std::vector<std::uint8_t> bytes = encode_network(q);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW((void)decode_exact(cut), CodecError) << "kept " << keep;
  }
  // Sanity: the untruncated container still decodes.
  EXPECT_TRUE(identical(q, decode_exact(bytes)));
}

TEST(DpnetzAdversarial, EveryBitFlipIsDetectedOrHarmless) {
  // CRC over the decoded payload closes the gap the range coder leaves
  // open: any flip either trips structural validation or changes decoded
  // symbols, and changed symbols fail the CRC. A flip may never produce a
  // silently different network.
  const nn::QuantizedNetwork q = tiny_network();
  const std::vector<std::uint8_t> bytes = encode_network(q);
  std::size_t detected = 0;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        const nn::QuantizedNetwork back = decode_exact(flipped);
        EXPECT_TRUE(identical(q, back))
            << "silent corruption at byte " << byte << " bit " << bit;
      } catch (const CodecError&) {
        ++detected;
      }
    }
  }
  // Most flips must be detected. The harmless remainder is real but benign:
  // the range coder's leading cache byte and the slack low bits of its
  // 5-byte flush tail don't affect any decoded symbol, so flips there decode
  // identically — which the loop above verifies whenever it happens.
  EXPECT_GT(detected, bytes.size() * 8 * 8 / 10);
}

TEST(DpnetzAdversarial, HostileHeaderFieldsAreRejectedBeforeAllocation) {
  const std::vector<std::uint8_t> good = encode_network(tiny_network());
  // (offset, value) pairs, each a fresh single-field mutation of a valid
  // container. Offsets follow the byte table in codec/container.hpp; the
  // first layer section starts at 12.
  struct Mutation {
    const char* what;
    std::size_t offset;
    std::uint8_t value;
  };
  const Mutation mutations[] = {
      {"magic byte", 0, 'X'},
      {"container version", 4, 2},
      {"format kind", 5, 3},
      {"format param out of range", 6, 0xFF},
      {"symbol width != total_bits", 8, 9},
      {"symbol width zero", 8, 0},
      {"header reserved nonzero", 9, 1},
      {"layer count zero (lo)", 10, 0},
      {"layer count hostile (hi)", 11, 0xFF},  // 0xFF?? > kMaxLayers
      {"fan_out hostile", 12 + 3, 0xFF},       // high byte of fan_out u32
      {"fan_in hostile", 16 + 3, 0xFF},        // high byte of fan_in u32
      {"activation unknown", 20, 2},
      {"weights model id zero", 21, 0},
      {"weights model id unknown", 21, 3},
      {"weights model id static (retired)", 21, 2},
      {"bias model id unknown", 22, 7},
      {"bias model id static (retired)", 22, 2},
      {"section reserved nonzero", 23, 1},
  };
  for (const Mutation& m : mutations) {
    std::vector<std::uint8_t> bad = good;
    ASSERT_LT(m.offset, bad.size());
    ASSERT_NE(bad[m.offset], m.value) << m.what;
    bad[m.offset] = m.value;
    EXPECT_THROW((void)decode_exact(bad), CodecError) << m.what;
  }
  // Layer count zero needs both bytes cleared to actually be zero.
  {
    std::vector<std::uint8_t> bad = good;
    bad[10] = 0;
    bad[11] = 0;
    EXPECT_THROW((void)decode_exact(bad), CodecError) << "layer count zero";
  }
}

TEST(DpnetzAdversarial, TrailingBytesAreRejected) {
  std::vector<std::uint8_t> bytes = encode_network(tiny_network());
  bytes.push_back(0x00);
  EXPECT_THROW((void)decode_exact(bytes), CodecError);
  bytes.pop_back();
  std::vector<std::uint8_t> doubled = bytes;
  doubled.insert(doubled.end(), bytes.begin(), bytes.end());
  EXPECT_THROW((void)decode_exact(doubled), CodecError);
}

TEST(DpnetzAdversarial, EmptyAndGarbageInputsFailCleanly) {
  EXPECT_THROW((void)decode_exact({}), CodecError);
  EXPECT_THROW((void)decode_exact({'D', 'P', 'N', 'Z'}), CodecError);
  std::mt19937 rng(99);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> garbage(1 + rng() % 256);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    // Random bytes essentially never form a valid CRC'd container; if one
    // ever did, decode must still not crash or over-read — both enforced by
    // running this under ASan.
    try {
      (void)decode_exact(garbage);
    } catch (const CodecError&) {
    }
  }
}

std::vector<std::uint32_t> sample_block() {
  return encode_payload(std::vector<std::uint32_t>{0x12u, 0x00u, 0xFFu, 0x80u, 0x7Fu}, 8);
}

TEST(PayloadAdversarial, EveryTruncationFailsCleanly) {
  const std::vector<std::uint32_t> block = sample_block();
  for (std::size_t keep = 0; keep < block.size(); ++keep) {
    const std::vector<std::uint32_t> cut(block.begin(), block.begin() + keep);
    EXPECT_THROW(
        (void)decode_payload(std::span<const std::uint32_t>(cut.data(), cut.size()), 8, 5),
        CodecError)
        << "kept " << keep;
  }
}

TEST(PayloadAdversarial, EveryBitFlipIsDetectedOrHarmless) {
  // The wire payload has no CRC of its own — the frame CRC covers it — so
  // at this layer the contract is weaker but still safety-critical: a flip
  // either throws or decodes to SOME 5 in-width patterns; it never crashes,
  // over-reads, or returns the wrong shape.
  const std::vector<std::uint32_t> patterns{0x12u, 0x00u, 0xFFu, 0x80u, 0x7Fu};
  const std::vector<std::uint32_t> block = sample_block();
  for (std::size_t word = 0; word < block.size(); ++word) {
    for (int bit = 0; bit < 32; ++bit) {
      std::vector<std::uint32_t> flipped = block;
      flipped[word] ^= 1u << bit;
      try {
        const std::vector<std::uint32_t> back = decode_payload(
            std::span<const std::uint32_t>(flipped.data(), flipped.size()), 8, 5);
        ASSERT_LE(back.size(), 5u);
        for (const std::uint32_t p : back) ASSERT_LT(p, 256u);
      } catch (const CodecError&) {
      }
    }
  }
}

TEST(PayloadAdversarial, HostileCountsAndLengthsAreRejected) {
  const std::vector<std::uint32_t> block = sample_block();
  // Element count lies high: caller's bound (the server passes the model
  // input dimension) must stop it before any allocation of that size.
  {
    std::vector<std::uint32_t> bad = block;
    bad[0] = 0xFFFFFFFFu;
    EXPECT_THROW((void)decode_payload(bad, 8, 1u << 20), CodecError);
  }
  // Coded length lies high (reads past the block) and low (trailing words).
  {
    std::vector<std::uint32_t> bad = block;
    bad[1] = 0xFFFFFFF0u;
    EXPECT_THROW((void)decode_payload(bad, 8, 5), CodecError);
  }
  {
    std::vector<std::uint32_t> bad = block;
    bad.push_back(0);  // extra word the length field does not cover
    EXPECT_THROW((void)decode_payload(bad, 8, 5), CodecError);
  }
  // A count/width pair whose decode would out-run the coded bytes.
  {
    std::vector<std::uint32_t> bad = block;
    bad[0] = 5000;
    EXPECT_THROW((void)decode_payload(bad, 8, 1u << 20), CodecError);
  }
  // Zero-length block claiming elements.
  {
    const std::vector<std::uint32_t> bad{3, 0};
    EXPECT_THROW((void)decode_payload(bad, 8, 5), CodecError);
  }
}

TEST(RangeCoderAdversarial, DecoderNeverReadsPastAnExactBuffer) {
  // Drive the decoder to exhaustion on exact-sized hostile buffers: the
  // moment it would need a byte past the end it must throw, and under ASan
  // the span construction makes any slip an abort.
  std::mt19937 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> buf(5 + rng() % 64);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    RangeDecoder dec(std::span<const std::uint8_t>(buf.data(), buf.size()));
    BitModel m;
    try {
      for (int i = 0; i < 4096; ++i) (void)dec.decode(m);
    } catch (const CodecError&) {
    }
    EXPECT_LE(dec.consumed(), buf.size());
  }
}

}  // namespace
}  // namespace dp::codec
