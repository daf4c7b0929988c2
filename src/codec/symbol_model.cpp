#include "codec/symbol_model.hpp"

#include <algorithm>
#include <string>

namespace dp::codec {

namespace {

/// Shared context walk: the top `tree_bits` bits index an implicit binary
/// tree (node 1 is the root; taking bit b moves to node 2*ctx + b, so node
/// indices 1..2^t - 1 are the proper prefixes), and each remaining low bit
/// uses the positional slot 2^t + (bit index past the tree). Both coder
/// directions walk exactly this sequence — that agreement IS the format.
///
/// probs_ layout: index 0 is unused (the tree starts at 1); tree nodes
/// occupy [1, 2^t); positional contexts occupy [2^t, 2^t + low_bits).

void check_symbol(std::uint32_t symbol, int width) {
  if (width < 32 && (symbol >> width) != 0) {
    throw CodecError("codec: symbol " + std::to_string(symbol) + " exceeds width " +
                     std::to_string(width));
  }
}

}  // namespace

void check_symbol_width(int width) {
  if (width < 1 || width > 32) {
    throw CodecError("codec: symbol width " + std::to_string(width) +
                     " outside [1, 32]");
  }
}

std::size_t context_count(int width) {
  check_symbol_width(width);
  const int tree_bits = std::min(width, kMaxTreeBits);
  return (std::size_t{1} << tree_bits) - 1 + static_cast<std::size_t>(width - tree_bits);
}

// Slot 0 is unused, so the table holds one entry more than there are contexts.
BitTreeModel::BitTreeModel(int width)
    : width_(width), tree_bits_(std::min(width, kMaxTreeBits)), probs_(context_count(width) + 1) {}

void BitTreeModel::encode(RangeEncoder& enc, std::uint32_t symbol) {
  check_symbol(symbol, width_);
  std::size_t ctx = 1;
  for (int i = width_ - 1; i >= width_ - tree_bits_; --i) {
    const int bit = static_cast<int>((symbol >> i) & 1u);
    enc.encode(probs_[ctx], bit);
    ctx = ctx * 2 + static_cast<std::size_t>(bit);
  }
  const std::size_t base = std::size_t{1} << tree_bits_;
  for (int i = width_ - tree_bits_ - 1; i >= 0; --i) {
    const int bit = static_cast<int>((symbol >> i) & 1u);
    enc.encode(probs_[base + static_cast<std::size_t>(width_ - tree_bits_ - 1 - i)], bit);
  }
}

std::uint32_t BitTreeModel::decode(RangeDecoder& dec) {
  std::size_t ctx = 1;
  for (int i = 0; i < tree_bits_; ++i) {
    ctx = ctx * 2 + static_cast<std::size_t>(dec.decode(probs_[ctx]));
  }
  std::uint32_t symbol = static_cast<std::uint32_t>(ctx - (std::size_t{1} << tree_bits_));
  const std::size_t base = std::size_t{1} << tree_bits_;
  for (int i = 0; i < width_ - tree_bits_; ++i) {
    symbol = (symbol << 1) | static_cast<std::uint32_t>(
                                 dec.decode(probs_[base + static_cast<std::size_t>(i)]));
  }
  return symbol;
}

}  // namespace dp::codec
