#pragma once
// Per-symbol-context models over n-bit quantized patterns (posit / minifloat
// / fixed), driving the dp::codec range coder.
//
// A symbol is one network-format bit pattern, width = Format::total_bits()
// (5..8 on the paper grid; anything in [1, 32] is accepted). Symbols are
// coded MSB first through a CONTEXT TREE: the context of each bit is the
// prefix of bits already coded for this symbol, so every distinct prefix
// owns its own adaptive probability. That is exactly the structure posit
// patterns have — sign, then a unary regime run, then es exponent bits, then
// fraction — so the model learns, per prefix, how likely the regime run is
// to continue, without anyone telling it where the regime ends. Quantized
// weight tapes are heavily skewed toward small-regime codes (the premise of
// the paper: most weights live near +-0..1), which is what makes them
// compress severalfold.
//
// The prefix tree is capped at kMaxTreeBits context bits: the first
// min(width, 12) bits get tree contexts (2^12 = 4096 contexts at most, 8 KB
// per model — cache-resident), and any remaining LOW bits are coded against
// one adaptive context per bit POSITION. Low fraction bits of wide fixed
// formats are near-uniform anyway; burning 2^31 contexts on them would buy
// nothing and cost everything.
//
// The model is adaptive: probabilities start at 1/2 and adapt with the
// shift-5 rule on both sides, so a coded stream carries no table and no
// header bytes. Every .dpnetz section and every wire payload frame starts a
// fresh model, which keeps frames independently decodable.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "codec/range_coder.hpp"

namespace dp::codec {

/// Context-tree depth cap (see header comment). Changing this changes every
/// coded stream, so it is part of the container/wire format contract.
inline constexpr int kMaxTreeBits = 12;

/// Number of probability contexts a width-`width` model carries: 2^t - 1
/// tree contexts (one per proper prefix of the top t = min(width, 12) bits)
/// plus one positional context per remaining low bit.
std::size_t context_count(int width);

/// Throws CodecError unless 1 <= width <= 32.
void check_symbol_width(int width);

/// Adaptive prefix-context model over width-bit symbols.
class BitTreeModel {
 public:
  explicit BitTreeModel(int width);

  int width() const { return width_; }

  /// Encode one symbol. Throws CodecError if `symbol` has bits outside the
  /// width — masking it would silently break the round-trip-exact guarantee.
  void encode(RangeEncoder& enc, std::uint32_t symbol);

  /// Decode one symbol (always < 2^width by construction).
  std::uint32_t decode(RangeDecoder& dec);

 private:
  int width_;
  int tree_bits_;                  // min(width, kMaxTreeBits)
  std::vector<BitModel> probs_;    // [2^tree_bits .. 2^tree_bits + low) positional
};

}  // namespace dp::codec
