#pragma once
// Zero-copy batch types for the dp::runtime inference API.
//
// The hot path never sees a vector-of-vectors: inputs arrive as a BatchView
// (doubles, quantized on entry) or a PatternView (input-format bit patterns,
// as the wire carries them) — a non-owning view of one contiguous, row-major
// buffer — and results leave as a BatchResult — one flat, row-major
// allocation of bit patterns or decoded scores. A serving front-end can point
// a view straight at its request buffer (or at a dataset slice) and hand rows
// to the worker pool without a single per-row allocation or pointer chase.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace dp::runtime {

/// Non-owning view of a contiguous row-major batch: `rows() x row_width()`
/// values of T, row i at data()[i * row_width()]. The viewed buffer must
/// outlive the view (the usual std::span contract). An empty view (zero rows)
/// is valid as long as row_width is non-zero.
template <typename T>
class BasicBatchView {
 public:
  BasicBatchView() = default;

  BasicBatchView(std::span<const T> data, std::size_t row_width)
      : data_(data), row_width_(row_width) {
    if (row_width == 0) {
      throw std::invalid_argument("BatchView: row width must be non-zero");
    }
    if (data.size() % row_width != 0) {
      throw std::invalid_argument("BatchView: buffer size is not a multiple of the row width");
    }
  }

  std::size_t rows() const { return row_width_ == 0 ? 0 : data_.size() / row_width_; }
  std::size_t row_width() const { return row_width_; }
  bool empty() const { return data_.empty(); }

  std::span<const T> row(std::size_t i) const {
    return data_.subspan(i * row_width_, row_width_);
  }

  const T* data() const { return data_.data(); }

 private:
  std::span<const T> data_;
  std::size_t row_width_ = 0;
};

/// Rows of real features; the Model quantizes them into its input format.
using BatchView = BasicBatchView<double>;
/// Rows of input-format bit patterns. The Model reads each word as the value
/// it decodes to: bits above n are ignored, and a pattern the quantizer never
/// emits (a float ±Inf or NaN payload) is re-encoded as the quantizer would
/// encode that value — exactly a BatchView of the decoded doubles.
using PatternView = BasicBatchView<std::uint32_t>;

/// Owning flat row-major batch output: `rows() x row_width` values of T
/// (std::uint32_t bit patterns or double scores) in one allocation, row i at
/// data[i * row_width].
template <typename T>
struct BatchResult {
  std::vector<T> data;
  std::size_t row_width = 0;

  std::size_t rows() const { return row_width == 0 ? 0 : data.size() / row_width; }

  std::span<const T> row(std::size_t i) const {
    return std::span<const T>(data).subspan(i * row_width, row_width);
  }
};

/// Copying bridge from the legacy vector-of-vectors layout into the flat
/// buffer a BatchView wants. Throws std::invalid_argument if any row differs
/// from `row_width` (the same contract the legacy batch entry points had).
inline std::vector<double> pack_rows(const std::vector<std::vector<double>>& rows,
                                     std::size_t row_width) {
  std::vector<double> flat;
  flat.reserve(rows.size() * row_width);
  for (const std::vector<double>& row : rows) {
    if (row.size() != row_width) {
      throw std::invalid_argument("pack_rows: bad row size in batch");
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

}  // namespace dp::runtime
