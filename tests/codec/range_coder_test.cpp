// Unit tests for the dp::codec core: the carry-safe binary range coder, the
// adaptive bit-tree symbol model, and the wire payload block.
// The theme throughout is round-trip EXACTNESS — decoded bits must equal
// source bits for every input, not just typical ones — plus the byte
// accounting the container relies on (consumed() == coded length).

#include "codec/range_coder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "codec/payload.hpp"
#include "codec/symbol_model.hpp"

namespace dp::codec {
namespace {

TEST(RangeCoder, BitModelAdaptsTowardObservedBits) {
  BitModel m;
  EXPECT_EQ(m.prob, kProbInit);
  for (int i = 0; i < 100; ++i) m.update(0);
  EXPECT_GT(m.prob, kProbOne - 64);  // near-certain zero, never reaches 2048
  EXPECT_LT(m.prob, kProbOne);
  for (int i = 0; i < 200; ++i) m.update(1);
  EXPECT_GE(m.prob, 1u);  // never reaches 0
  EXPECT_LT(m.prob, 64u);
}

TEST(RangeCoder, RandomBitStreamRoundTripsExactly) {
  // Adaptive contexts on both sides walk identical state machines, so any
  // bit sequence must survive. 8 contexts cycled deterministically.
  std::mt19937 rng(42);
  std::vector<int> bits(20000);
  for (auto& b : bits) b = (rng() >> 11) & 1;

  std::vector<std::uint8_t> coded;
  {
    std::vector<BitModel> models(8);
    RangeEncoder enc(coded);
    for (std::size_t i = 0; i < bits.size(); ++i) enc.encode(models[i % 8], bits[i]);
    enc.finish();
  }
  {
    std::vector<BitModel> models(8);
    RangeDecoder dec(coded);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      ASSERT_EQ(dec.decode(models[i % 8]), bits[i]) << "bit " << i;
    }
    // The decoder needed exactly the bytes the encoder wrote: this equality
    // is what lets the container validate its section length fields.
    EXPECT_EQ(dec.consumed(), coded.size());
  }
}

TEST(RangeCoder, SkewedStreamCompressesBelowOneBitPerSymbol) {
  // 99% zeros through one adaptive context: the coded size must land well
  // under the 1-bit-per-symbol floor of any non-arithmetic bit packer.
  std::mt19937 rng(7);
  std::vector<int> bits(50000);
  for (auto& b : bits) b = (rng() % 100 == 0) ? 1 : 0;
  std::vector<std::uint8_t> coded;
  BitModel enc_model;
  RangeEncoder enc(coded);
  for (const int b : bits) enc.encode(enc_model, b);
  enc.finish();
  EXPECT_LT(coded.size(), bits.size() / 8 / 4);  // < 2 bits per 8 symbols
  BitModel dec_model;
  RangeDecoder dec(coded);
  for (std::size_t i = 0; i < bits.size(); ++i) ASSERT_EQ(dec.decode(dec_model), bits[i]);
}

TEST(RangeCoder, FixedProbabilityPathRoundTrips) {
  std::mt19937 rng(3);
  std::vector<int> bits(5000);
  for (auto& b : bits) b = (rng() % 10 == 0) ? 1 : 0;
  const std::uint32_t p = (kProbOne * 9) / 10;  // P(0) = 0.9, frozen
  std::vector<std::uint8_t> coded;
  RangeEncoder enc(coded);
  for (const int b : bits) enc.encode_fixed(p, b);
  enc.finish();
  RangeDecoder dec(coded);
  for (std::size_t i = 0; i < bits.size(); ++i) ASSERT_EQ(dec.decode_fixed(p), bits[i]);
  EXPECT_EQ(dec.consumed(), coded.size());
}

TEST(RangeCoder, DecoderThrowsOnTruncatedStreamNeverOverReads) {
  std::vector<std::uint8_t> coded;
  {
    BitModel m;
    RangeEncoder enc(coded);
    for (int i = 0; i < 1000; ++i) enc.encode(m, i & 1);
    enc.finish();
  }
  // Too short even to prime the 5-byte code register.
  for (std::size_t n = 0; n < 5; ++n) {
    const std::span<const std::uint8_t> cut(coded.data(), n);
    EXPECT_THROW((void)RangeDecoder(cut), CodecError) << n;
  }
  // Any truncation must throw by the time the decoder needs the missing
  // byte; it can never read past the span.
  for (const std::size_t keep : {std::size_t{5}, coded.size() / 2, coded.size() - 1}) {
    BitModel m;
    RangeDecoder dec(std::span<const std::uint8_t>(coded.data(), keep));
    EXPECT_THROW(
        {
          for (int i = 0; i < 1000; ++i) (void)dec.decode(m);
        },
        CodecError)
        << "kept " << keep << " of " << coded.size();
  }
}

TEST(SymbolModel, ContextCountMatchesTheTreeCap) {
  EXPECT_EQ(context_count(1), 1u);                    // just the root
  EXPECT_EQ(context_count(8), 255u);                  // 2^8 - 1
  EXPECT_EQ(context_count(12), 4095u);                // full tree at the cap
  EXPECT_EQ(context_count(13), 4095u + 1);            // + 1 positional bit
  EXPECT_EQ(context_count(32), 4095u + 20);           // + 20 positional bits
  EXPECT_THROW(context_count(0), CodecError);
  EXPECT_THROW(context_count(33), CodecError);
}

TEST(SymbolModel, BitTreeRoundTripsEveryWidth) {
  // Every width in [1, 32], including the >12 positional-context regime.
  // Patterns exercise all-zero, all-one and pseudo-random symbols.
  for (const int width : {1, 2, 5, 6, 7, 8, 12, 13, 16, 24, 32}) {
    const std::uint32_t mask =
        width == 32 ? 0xFFFFFFFFu : ((1u << width) - 1u);
    std::mt19937 rng(static_cast<unsigned>(width));
    std::vector<std::uint32_t> symbols{0u, mask, mask >> 1, 1u};
    for (int i = 0; i < 500; ++i) symbols.push_back(rng() & mask);

    std::vector<std::uint8_t> coded;
    {
      BitTreeModel model(width);
      RangeEncoder enc(coded);
      for (const std::uint32_t s : symbols) model.encode(enc, s);
      enc.finish();
    }
    BitTreeModel model(width);
    RangeDecoder dec(coded);
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      ASSERT_EQ(model.decode(dec), symbols[i]) << "width " << width << " symbol " << i;
    }
    EXPECT_EQ(dec.consumed(), coded.size()) << "width " << width;
  }
}

TEST(SymbolModel, EncodeRejectsOutOfWidthSymbols) {
  // Masking would "work" and silently break exactness; throwing is the
  // contract.
  std::vector<std::uint8_t> coded;
  RangeEncoder enc(coded);
  BitTreeModel model(8);
  EXPECT_THROW(model.encode(enc, 0x100u), CodecError);
  EXPECT_THROW(BitTreeModel(0), CodecError);
  EXPECT_THROW(BitTreeModel(33), CodecError);
}

TEST(PayloadBlock, RoundTripsAcrossWidthsAndSizes) {
  for (const int width : {5, 6, 7, 8, 16, 32}) {
    const std::uint32_t mask =
        width == 32 ? 0xFFFFFFFFu : ((1u << width) - 1u);
    std::mt19937 rng(static_cast<unsigned>(width) * 7u);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                                std::size_t{257}}) {
      std::vector<std::uint32_t> patterns(n);
      for (auto& p : patterns) p = rng() & mask;
      const std::vector<std::uint32_t> block = encode_payload(patterns, width);
      ASSERT_GE(block.size(), kPayloadBlockHeaderWords);
      EXPECT_EQ(block[0], n);
      const std::vector<std::uint32_t> back = decode_payload(block, width, n);
      EXPECT_EQ(back, patterns) << "width " << width << " n " << n;
    }
  }
}

TEST(PayloadBlock, FramesAreIndependentlyDecodable) {
  // Each block carries a fresh adaptive model: decoding must not depend on
  // any earlier block (frames can be dropped, reordered, or retried).
  const std::vector<std::uint32_t> a{1, 2, 3, 4};
  const std::vector<std::uint32_t> b{200, 100, 50, 25};
  const std::vector<std::uint32_t> block_b = encode_payload(b, 8);
  EXPECT_EQ(decode_payload(block_b, 8, 4), b);  // without ever decoding a
  const std::vector<std::uint32_t> block_a = encode_payload(a, 8);
  EXPECT_EQ(decode_payload(block_a, 8, 4), a);
}

TEST(PayloadBlock, DecodeValidatesEveryField) {
  const std::vector<std::uint32_t> patterns{7, 0, 31, 16};
  const std::vector<std::uint32_t> block = encode_payload(patterns, 5);

  // Shorter than the two-word header.
  EXPECT_THROW(decode_payload(std::span<const std::uint32_t>(block.data(), 1), 5, 4),
               CodecError);
  // Element count over the caller's bound (the server passes the model dim).
  EXPECT_THROW(decode_payload(block, 5, 3), CodecError);
  // Block size disagreeing with the coded-length field.
  {
    std::vector<std::uint32_t> bad = block;
    bad[1] += 4;
    EXPECT_THROW(decode_payload(bad, 5, 4), CodecError);
  }
  // Nonzero padding byte (exactly one valid encoding per block).
  {
    std::vector<std::uint32_t> bad = block;
    const std::size_t coded_len = bad[1];
    if (coded_len % 4 != 0) {
      bad.back() |= 0xFFu << (8 * (coded_len % 4));
      EXPECT_THROW(decode_payload(bad, 5, 4), CodecError);
    }
  }
  // Truncated coded bytes.
  {
    std::vector<std::uint32_t> bad = block;
    bad[1] = static_cast<std::uint32_t>(bad[1]) + 40;  // claims more than present
    EXPECT_THROW(decode_payload(bad, 5, 4), CodecError);
  }
}

}  // namespace
}  // namespace dp::codec
