#include "nn/trainer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>

// One AVX2 clone and one baseline clone of train(), picked at load time by
// an ifunc resolver. No "fma": contracting a * b + c into one rounding would
// change the bits. ThreadSanitizer builds keep the baseline alone: the
// resolver runs before the TSan runtime is up, and the program crashes.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__)
#define DP_TRAIN_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define DP_TRAIN_CLONES
#endif

namespace dp::nn {

namespace {

/// One layer's training buffers, sized once per train() call.
struct LayerState {
  std::vector<float> wt;              // weights transposed (in x out): the forward copy
  std::vector<float> gw, gb;          // batch gradient sums, laid out as weights / bias
  std::vector<float> mw, vw, mb, vb;  // Adam moments, same layouts
  std::vector<float> z, a;            // this sample's pre- and post-activation
  std::vector<float> delta;           // this sample's dLoss/dz
  std::vector<std::uint32_t> nz;      // indices of this sample's nonzero inputs
  std::size_t nnz = 0;
  struct Quiet {
    std::uint32_t row;
    double max_input;  // the row's z is its bias for every input with max |a| below this
  };
  std::vector<Quiet> quiet;  // rows whose column in wt is zeroed
};

/// A row is quiet only if its bias outweighs every product for inputs up
/// to 2^kQuietRoom. A sample with a larger input takes that row's exact sum,
/// so any value is correct; this one keeps normalized inputs and hidden
/// activations well inside the bound, so live rows never qualify.
constexpr int kQuietRoom = 24;

/// Refresh the forward copy: wt = weights transposed, with the column of
/// every quiet row zeroed (the quiet-row argument is in nn/trainer.hpp).
void refresh_forward_copy(const DenseLayer& layer, LayerState& s) {
  const std::size_t nin = layer.fan_in(), nout = layer.fan_out();
  for (std::size_t j = 0; j < nout; ++j) {
    for (std::size_t i = 0; i < nin; ++i) s.wt[i * nout + j] = layer.weights(j, i);
  }
  s.quiet.clear();
  for (std::size_t j = 0; j < nout; ++j) {
    const float b = layer.bias[j];
    if (!std::isnormal(b)) continue;
    // max |w| over the row, on the bit patterns (no subnormal arithmetic).
    std::uint32_t wbits = 0;
    for (std::size_t i = 0; i < nin; ++i) {
      wbits = std::max(wbits, std::bit_cast<std::uint32_t>(layer.weights(j, i)) & 0x7fffffffu);
    }
    if (wbits >= 0x7f800000u) continue;  // inf or NaN
    // |fl(w*a)| <= 2*wmax*A < 2^(ilogb(b) - 25) for every A below
    // 2^room. Rows with less room than kQuietRoom are left to the copy.
    const int room =
        wbits == 0 ? kQuietRoom : std::ilogb(b) - 27 - std::ilogb(std::bit_cast<float>(wbits));
    if (room < kQuietRoom) continue;
    s.quiet.push_back({static_cast<std::uint32_t>(j), std::ldexp(1.0, room)});
    for (std::size_t i = 0; i < nin; ++i) s.wt[i * nout + j] = 0.0f;
  }
}

/// The shared X/y checks; labels must index the readout.
void check_dataset(const char* who, const Mlp& net, const Matrix& x, const std::vector<int>& y) {
  const std::string w(who);
  if (x.rows() != y.size()) throw std::invalid_argument(w + ": X/y size mismatch");
  if (net.layers().empty()) throw std::invalid_argument(w + ": network has no layers");
  if (x.cols() != net.input_dim()) throw std::invalid_argument(w + ": X width != input_dim");
  const auto classes = static_cast<long long>(net.output_dim());
  for (const int label : y) {
    if (label < 0 || label >= classes) throw std::invalid_argument(w + ": label out of range");
  }
}

}  // namespace

DP_TRAIN_CLONES
TrainResult train(Mlp& net, const Matrix& x, const std::vector<int>& y,
                  const TrainConfig& cfg) {
  check_dataset("train", net, x, y);
  if (x.rows() == 0) throw std::invalid_argument("train: empty dataset");
  if (cfg.batch_size == 0) throw std::invalid_argument("train: batch_size == 0");

  const float b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  const float lr = cfg.learning_rate, l2 = cfg.l2;
  const std::size_t nl = net.layers().size();
  std::vector<LayerState> st(nl);
  for (std::size_t li = 0; li < nl; ++li) {
    const DenseLayer& layer = net.layers()[li];
    LayerState& s = st[li];
    const std::size_t nw = layer.weights.size(), nout = layer.fan_out();
    s.wt.resize(nw);
    s.gw.assign(nw, 0.0f);
    s.mw.assign(nw, 0.0f);
    s.vw.assign(nw, 0.0f);
    s.gb.assign(nout, 0.0f);
    s.mb.assign(nout, 0.0f);
    s.vb.assign(nout, 0.0f);
    s.z.assign(nout, 0.0f);
    s.a.assign(nout, 0.0f);
    s.delta.assign(nout, 0.0f);
    s.nz.assign(layer.fan_in(), 0);
    refresh_forward_copy(layer, s);
  }

  std::mt19937 rng(cfg.seed);
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);

  TrainResult result;
  long step = 0;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    double epoch_loss = 0.0;

    for (std::size_t start = 0; start < order.size(); start += cfg.batch_size) {
      const std::size_t end = std::min(order.size(), start + cfg.batch_size);
      const auto bsz = static_cast<float>(end - start);
      for (LayerState& s : st) {
        std::fill(s.gw.begin(), s.gw.end(), 0.0f);
        std::fill(s.gb.begin(), s.gb.end(), 0.0f);
      }

      for (std::size_t idx = start; idx < end; ++idx) {
        const std::size_t r = order[idx];
        const float* const row = x.data().data() + r * x.cols();

        // Forward: z = bias + sum_i wt[i][.] * in[i], input index outer.
        for (std::size_t li = 0; li < nl; ++li) {
          const DenseLayer& layer = net.layers()[li];
          LayerState& s = st[li];
          const std::size_t nin = layer.fan_in(), nout = layer.fan_out();
          const float* in = li == 0 ? row : st[li - 1].a.data();
          s.nnz = 0;
          for (std::size_t i = 0; i < nin; ++i) {
            s.nz[s.nnz] = static_cast<std::uint32_t>(i);
            s.nnz += in[i] != 0.0f;
          }
          std::uint32_t abits = 0;  // max |in[i]| on the bit patterns; NaN > inf
          for (std::size_t i = 0; i < nin; ++i) {
            abits = std::max(abits, std::bit_cast<std::uint32_t>(in[i]) & 0x7fffffffu);
          }
          const double amax = std::bit_cast<float>(abits);
          float* z = s.z.data();
          std::copy(layer.bias.begin(), layer.bias.end(), z);
          for (std::size_t k = 0; k < s.nnz; ++k) {
            const float ai = in[s.nz[k]];
            const float* wrow = &s.wt[s.nz[k] * nout];
            for (std::size_t j = 0; j < nout; ++j) z[j] += wrow[j] * ai;
          }
          // A quiet row whose bound this input breaks: its exact sum.
          for (const LayerState::Quiet& q : s.quiet) {
            if (amax < q.max_input) continue;
            const float* wrow = layer.weights.data().data() + q.row * nin;
            float sum = layer.bias[q.row];
            for (std::size_t k = 0; k < s.nnz; ++k) sum += wrow[s.nz[k]] * in[s.nz[k]];
            z[q.row] = sum;
          }
          for (std::size_t j = 0; j < nout; ++j) {
            s.a[j] = layer.activation == Activation::kReLU ? std::max(0.0f, z[j]) : z[j];
          }
        }

        // delta at the readout: softmax CE gradient.
        const auto label = static_cast<std::size_t>(y[r]);
        std::vector<float>& top = st[nl - 1].delta;
        softmax_into(st[nl - 1].a, top);
        epoch_loss += -std::log(std::max(top[label], 1e-12f));
        top[label] -= 1.0f;

        for (std::size_t li = nl; li-- > 0;) {
          const DenseLayer& layer = net.layers()[li];
          LayerState& s = st[li];
          const std::size_t nin = layer.fan_in(), nout = layer.fan_out();
          float* delta = s.delta.data();
          // ReLU gate (identity readout has no gate).
          if (layer.activation == Activation::kReLU) {
            for (std::size_t j = 0; j < nout; ++j) {
              if (s.z[j] <= 0.0f) delta[j] = 0.0f;
            }
          }
          const float* in = li == 0 ? row : st[li - 1].a.data();
          for (std::size_t j = 0; j < nout; ++j) {
            const float d = delta[j];
            if (d == 0.0f) continue;
            s.gb[j] += d;
            float* grow = &s.gw[j * nin];
            for (std::size_t k = 0; k < s.nnz; ++k) grow[s.nz[k]] += d * in[s.nz[k]];
          }
          if (li > 0) {
            // prev[i] = sum_j w[j][i] * delta[j], output index outer. Under a
            // ReLU only the units with a nonzero output survive the gate.
            float* prev = st[li - 1].delta.data();
            std::fill(prev, prev + nin, 0.0f);
            const bool gated = net.layers()[li - 1].activation == Activation::kReLU;
            for (std::size_t j = 0; j < nout; ++j) {
              const float d = delta[j];
              if (d == 0.0f) continue;
              const float* wrow = layer.weights.data().data() + j * nin;
              if (gated) {
                for (std::size_t k = 0; k < s.nnz; ++k) prev[s.nz[k]] += wrow[s.nz[k]] * d;
              } else {
                for (std::size_t i = 0; i < nin; ++i) prev[i] += wrow[i] * d;
              }
            }
          }
        }
      }

      // Adam update, then refresh the forward copy.
      ++step;
      const auto fstep = static_cast<float>(step);
      const float corr1 = 1.0f - std::pow(b1, fstep);
      const float corr2 = 1.0f - std::pow(b2, fstep);
      for (std::size_t li = 0; li < nl; ++li) {
        DenseLayer& layer = net.layers()[li];
        LayerState& s = st[li];
        float* const w = layer.weights.data().data();
        for (std::size_t k = 0; k < s.gw.size(); ++k) {
          const float g = s.gw[k] / bsz + l2 * w[k];
          float& m = s.mw[k];
          float& v = s.vw[k];
          m = b1 * m + (1 - b1) * g;
          v = b2 * v + (1 - b2) * g * g;
          w[k] -= lr * (m / corr1) / (std::sqrt(v / corr2) + eps);
        }
        for (std::size_t j = 0; j < s.gb.size(); ++j) {
          const float g = s.gb[j] / bsz;
          float& m = s.mb[j];
          float& v = s.vb[j];
          m = b1 * m + (1 - b1) * g;
          v = b2 * v + (1 - b2) * g * g;
          layer.bias[j] -= lr * (m / corr1) / (std::sqrt(v / corr2) + eps);
        }
        refresh_forward_copy(layer, s);
      }
    }

    const float mean_loss = static_cast<float>(epoch_loss / static_cast<double>(x.rows()));
    result.epoch_loss.push_back(mean_loss);
    if (cfg.verbose && epoch % 25 == 0) {
      std::printf("epoch %4d  loss %.4f\n", epoch, static_cast<double>(mean_loss));
    }
  }
  result.final_loss = result.epoch_loss.empty() ? 0.0f : result.epoch_loss.back();
  return result;
}

double accuracy(const Mlp& net, const Matrix& x, const std::vector<int>& y) {
  if (x.rows() != y.size()) throw std::invalid_argument("accuracy: X/y size mismatch");
  std::size_t correct = 0;
  std::vector<float> row(x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] = x(r, c);
    if (net.predict(row) == y[r]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.rows());
}

double mean_cross_entropy(const Mlp& net, const Matrix& x, const std::vector<int>& y) {
  check_dataset("mean_cross_entropy", net, x, y);
  double loss = 0.0;
  std::vector<float> row(x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] = x(r, c);
    const auto prob = softmax(net.forward(row));
    loss += -std::log(std::max(prob[static_cast<std::size_t>(y[r])], 1e-12f));
  }
  return loss / static_cast<double>(x.rows());
}

}  // namespace dp::nn
