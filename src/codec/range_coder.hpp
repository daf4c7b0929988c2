#pragma once
// dp::codec range coder — the integer-only, carry-propagation-safe core of
// the entropy-coding subsystem (docs/compression.md).
//
// This is a binary arithmetic coder in the lineage of Amir Said's FastAC and
// the LZMA range coder (see SNIPPETS.md: Geolm/arithmetic_codec,
// rotemdan/entropy-coding): a 32-bit range is narrowed by one binary
// decision at a time against an 11-bit probability, and bytes are emitted or
// consumed whenever the range drops below 2^24. Carries are handled the
// LZMA way — the encoder holds the last byte (plus a run of 0xFF bytes) in
// a cache until the next shift proves whether a carry out of the 33-bit low
// accumulator reaches them — so the output never needs retroactive patching
// and the decoder is a straight-line read loop.
//
// Everything here is integer arithmetic with fully defined overflow
// behaviour; encode and decode walk bit-identical state machines, which is
// what makes the round-trip-exact guarantee (decoded bits == source bits,
// always) a property of the construction rather than of luck.
//
// The hot loops live in this header so -O2 can inline them; throughput is
// benched by bench/bench_codec.cpp (BENCH_codec.json).
//
// Robustness contract (pinned by tests/codec/codec_adversarial_test.cpp):
// RangeDecoder never reads past the span it was given — a truncated or
// hostile stream throws CodecError at the first missing byte instead of
// over-reading or crashing.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace dp::codec {

/// Malformed or truncated coded input (container, payload block, or raw
/// stream). Decoders throw it at the first bad byte; encoders throw it on
/// inputs that cannot round-trip (e.g. a symbol wider than the model).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Probabilities are P(bit == 0) scaled to 11 bits, adapted with shift-5
/// exponential decay — the classic LZMA constants: cheap, and within ~2% of
/// optimal on the skewed posit streams we feed it.
inline constexpr std::uint32_t kProbBits = 11;
inline constexpr std::uint32_t kProbOne = 1u << kProbBits;   // 2048
inline constexpr std::uint32_t kProbInit = kProbOne / 2;     // 1/2
inline constexpr std::uint32_t kProbAdaptShift = 5;
/// Renormalization threshold: shift a byte once the range narrows below it.
inline constexpr std::uint32_t kRangeTop = 1u << 24;

/// One adaptive binary context: P(bit == 0) in [1, kProbOne - 1]. Encode and
/// decode apply the identical update, so the two sides' probabilities never
/// diverge. The clamp to [1, 2047] is implicit in the update rule: prob can
/// never reach 0 or 2048.
struct BitModel {
  std::uint16_t prob = static_cast<std::uint16_t>(kProbInit);

  void update(int bit) {
    if (bit == 0) {
      prob = static_cast<std::uint16_t>(prob + ((kProbOne - prob) >> kProbAdaptShift));
    } else {
      prob = static_cast<std::uint16_t>(prob - (prob >> kProbAdaptShift));
    }
  }
};

class RangeEncoder {
 public:
  /// Appends coded bytes to `out` (existing contents are preserved, so a
  /// container can interleave headers and coded sections in one buffer).
  explicit RangeEncoder(std::vector<std::uint8_t>& out) : out_(&out) {}

  /// Encode one bit against an adaptive context (context adapts).
  void encode(BitModel& model, int bit) {
    encode_fixed(model.prob, bit);
    model.update(bit);
  }

  /// Encode one bit against a given probability, leaving it unchanged.
  void encode_fixed(std::uint32_t prob_zero, int bit) {
    const std::uint32_t bound = (range_ >> kProbBits) * prob_zero;
    if (bit == 0) {
      range_ = bound;
    } else {
      low_ += bound;
      range_ -= bound;
    }
    while (range_ < kRangeTop) {
      range_ <<= 8;
      shift_low();
    }
  }

  /// Flush the remaining state. Call exactly once; the encoder is spent
  /// afterwards. Emits 5 bytes (the 33-bit low accumulator plus the cache),
  /// which is also exactly the decoder's priming read — a valid stream is
  /// never shorter than the decoder needs.
  void finish() {
    for (int i = 0; i < 5; ++i) shift_low();
  }

 private:
  void shift_low() {
    // A carry out of the 33-bit low reaches the cached byte run iff low's
    // top byte is not 0xFF; either way the run can now be emitted.
    if (static_cast<std::uint32_t>(low_) < 0xFF000000u || (low_ >> 32) != 0) {
      const std::uint8_t carry = static_cast<std::uint8_t>(low_ >> 32);
      std::uint8_t byte = cache_;
      do {
        out_->push_back(static_cast<std::uint8_t>(byte + carry));
        byte = 0xFF;
      } while (--cache_size_ != 0);
      cache_ = static_cast<std::uint8_t>(low_ >> 24);
    }
    ++cache_size_;
    low_ = (low_ & 0x00FFFFFFull) << 8;
  }

  std::vector<std::uint8_t>* out_;
  std::uint64_t low_ = 0;       // 33 significant bits; bit 32 is the carry
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint8_t cache_ = 0;      // first shift emits this harmless 0x00 byte
  std::uint64_t cache_size_ = 1;
};

class RangeDecoder {
 public:
  /// Decodes from `bytes`; never reads outside it. Throws CodecError
  /// immediately if the stream is too short even to prime the code register
  /// (5 bytes — see RangeEncoder::finish).
  explicit RangeDecoder(std::span<const std::uint8_t> bytes) : bytes_(bytes) {
    for (int i = 0; i < 5; ++i) code_ = (code_ << 8) | read_byte();
  }

  int decode(BitModel& model) {
    const int bit = decode_fixed(model.prob);
    model.update(bit);
    return bit;
  }

  int decode_fixed(std::uint32_t prob_zero) {
    const std::uint32_t bound = (range_ >> kProbBits) * prob_zero;
    int bit;
    if (code_ < bound) {
      range_ = bound;
      bit = 0;
    } else {
      code_ -= bound;
      range_ -= bound;
      bit = 1;
    }
    while (range_ < kRangeTop) {
      range_ <<= 8;
      code_ = (code_ << 8) | read_byte();
    }
    return bit;
  }

  /// Bytes consumed so far (for container sections that pack several coded
  /// blobs back to back: the section header records the exact length, and
  /// the decoder must not have needed more).
  std::size_t consumed() const { return pos_; }

 private:
  std::uint8_t read_byte() {
    if (pos_ >= bytes_.size()) {
      throw CodecError("codec: coded stream truncated");
    }
    return bytes_[pos_++];
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

}  // namespace dp::codec
