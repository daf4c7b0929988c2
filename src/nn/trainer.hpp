#pragma once
// Mini-batch Adam trainer with softmax cross-entropy loss. Stands in for the
// paper's float32 training pipeline; only the trained weights matter
// downstream (they get quantized for Deep Positron inference).

#include <cstdint>
#include <vector>

#include "nn/mlp.hpp"

namespace dp::nn {

struct TrainConfig {
  int epochs = 200;
  std::size_t batch_size = 16;
  float learning_rate = 1e-3f;
  float l2 = 1e-4f;          ///< weight decay
  std::uint32_t seed = 1;    ///< shuffling seed
  bool verbose = false;
};

struct TrainResult {
  std::vector<float> epoch_loss;  ///< mean cross-entropy per epoch
  float final_loss = 0.0f;
};

/// Train in place. X: samples x features, y: class labels in [0, classes).
/// Throws std::invalid_argument on a size mismatch, an X width other than
/// net.input_dim(), a label outside [0, net.output_dim()), an empty X or a
/// batch_size of 0.
///
/// Exactness contract. Every trained float is the result of the same IEEE
/// binary32 operations, in the same order, as the textbook loops: per
/// sample, z[j] = bias[j] + sum_i w[j][i] * in[i] with i ascending, then
/// backprop with prev[i] = sum_j w[j][i] * delta[j] with j ascending, and
/// one Adam step per batch. The fast loops keep that, for finite
/// parameters and inputs, because:
///  - The loop interchanges (forward over a transposed copy with the input
///    index outer; prev with the output index outer) reorder only across
///    independent accumulators, never within one.
///  - Skipping a term x * 0 (a zero input, a zero delta) is exact. Every
///    accumulator starts at +0, or at a bias that starts at +0, and under
///    round-to-nearest a sum is -0 only when both addends are -0. So no
///    accumulator, and no bias, is ever -0, and adding +-0 never changes one.
///  - Under a ReLU, prev[i] is summed only for units with a nonzero output:
///    every other entry has z <= 0, so the gate sets it to 0 anyway.
///  - A quiet row (normal bias b, every |w| <= wmax) has its column zeroed in
///    the forward copy. For inputs with max |a| = A, each product obeys
///    |fl(w * a)| <= 2 * wmax * A; while that is below 2^(ilogb(b) - 25),
///    under half the float spacing on either side of b, z stays exactly b.
///    A sample whose A breaks the bound gets that row's sum from the
///    original weights. These are the weights of dead ReLU units that l2
///    decays into subnormals, where every arithmetic instruction would
///    stall on a microcode assist.
///  - SSE/AVX2 lanes and sqrtps perform the same correctly rounded
///    operations as the scalar code. There is an AVX2 clone but no FMA
///    (contraction would round once instead of twice), and
///    -fno-math-errno only drops the errno write of std::sqrt.
/// Flush-to-zero would be faster still but changes the bits, so it is not
/// used. tests/core/train_pin_test.cpp pins the three Table II nets and
/// tests/nn/trainer_test.cpp checks the textbook loops bit for bit.
TrainResult train(Mlp& net, const Matrix& x, const std::vector<int>& y,
                  const TrainConfig& cfg);

/// Classification accuracy in [0, 1].
double accuracy(const Mlp& net, const Matrix& x, const std::vector<int>& y);

/// Mean softmax cross-entropy of the network on (x, y). Checks X and y as
/// train() does.
double mean_cross_entropy(const Mlp& net, const Matrix& x, const std::vector<int>& y);

}  // namespace dp::nn
