#include "runtime/session.hpp"

#include <algorithm>
#include <stdexcept>

namespace dp::runtime {

namespace {

/// Validate before any member construction: a null model must not cost a
/// worker-pool spawn/teardown just to report the error.
std::shared_ptr<const Model> require_model(std::shared_ptr<const Model> model) {
  if (!model) throw std::invalid_argument("runtime::Session: null model");
  return model;
}

}  // namespace

Session::Session(std::shared_ptr<const Model> model, SessionOptions opts)
    : model_(require_model(std::move(model))),
      pool_(opts.pool != nullptr ? std::move(opts.pool)
                                 : std::make_shared<WorkerPool>(opts.num_threads)),
      bits_(model_->output_dim()) {
  scratch_.reserve(pool_->slots());
  for (std::size_t s = 0; s < pool_->slots(); ++s) scratch_.push_back(model_->make_scratch());
  scores_.reserve(model_->output_dim());
}

void Session::forward_one(std::span<const double> x) {
  if (x.size() != model_->input_dim()) {
    throw std::invalid_argument("runtime::Session: input size != model input_dim");
  }
  forward_bits_into(BatchView(x, x.size()), bits_);
}

std::span<const std::uint32_t> Session::forward_bits(std::span<const double> x) {
  forward_one(x);
  return bits_;
}

std::span<const double> Session::forward(std::span<const double> x) {
  forward_one(x);
  scores_.clear();
  for (const std::uint32_t b : bits_) scores_.push_back(model_->output_format().to_double(b));
  return scores_;
}

int Session::predict(std::span<const double> x) {
  forward_one(x);
  return model_->argmax_bits(bits_);
}

BatchResult<std::uint32_t> Session::forward_bits(BatchView xs) {
  const std::size_t width = model_->output_dim();
  BatchResult<std::uint32_t> out{std::vector<std::uint32_t>(xs.rows() * width), width};
  forward_bits_into(xs, out.data);
  return out;
}

void Session::forward_bits_into(BatchView xs, std::span<std::uint32_t> out) {
  if (xs.rows() != 0 && xs.row_width() != model_->input_dim()) {
    throw std::invalid_argument("runtime::Session: batch row width != model input_dim");
  }
  const std::size_t width = model_->output_dim();
  if (out.size() != xs.rows() * width) {
    throw std::invalid_argument(
        "runtime::Session::forward_bits_into: out.size() != rows * output_dim");
  }
  // Tiles of preferred_tile() rows (the last one ragged), each tile one pool
  // row with chunk 1 so a handful of heavy tiles still spreads across slots.
  // A single tile runs inline on the submitting thread.
  const std::size_t tile = model_->preferred_tile();
  const std::size_t tiles = (xs.rows() + tile - 1) / tile;
  pool_->run(
      tiles,
      [&](std::size_t t, std::size_t slot) {
        const std::size_t row0 = t * tile;
        const std::size_t nrows = std::min(tile, xs.rows() - row0);
        model_->forward_tile_into(xs, row0, nrows, scratch_[slot], out.data() + row0 * width);
      },
      /*chunk=*/1);
}

BatchResult<double> Session::forward(BatchView xs) {
  const BatchResult<std::uint32_t> bits = forward_bits(xs);
  const num::Format& fmt = model_->output_format();
  BatchResult<double> out{std::vector<double>(bits.data.size()), bits.row_width};
  for (std::size_t i = 0; i < bits.data.size(); ++i) out.data[i] = fmt.to_double(bits.data[i]);
  return out;
}

std::vector<int> Session::predict(BatchView xs) {
  const BatchResult<std::uint32_t> bits = forward_bits(xs);
  std::vector<int> out(xs.rows());
  for (std::size_t row = 0; row < xs.rows(); ++row) out[row] = model_->argmax_bits(bits.row(row));
  return out;
}

double Session::accuracy(BatchView xs, std::span<const int> labels) {
  if (labels.size() != xs.rows()) {
    throw std::invalid_argument("runtime::Session::accuracy: size mismatch");
  }
  if (xs.rows() == 0) return 0.0;
  const std::vector<int> preds = predict(xs);
  std::size_t hits = 0;
  for (std::size_t row = 0; row < preds.size(); ++row) hits += preds[row] == labels[row] ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(xs.rows());
}

}  // namespace dp::runtime
