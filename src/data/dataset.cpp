#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>

namespace dp::data {

Split stratified_split(const Dataset& d, double test_fraction, std::uint32_t seed) {
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    throw std::invalid_argument("stratified_split: fraction must be in (0,1)");
  }
  std::mt19937 rng(seed);
  // Bucket indices per class and shuffle each bucket.
  std::vector<std::vector<std::size_t>> buckets(static_cast<std::size_t>(d.classes));
  for (std::size_t i = 0; i < d.size(); ++i) {
    buckets[static_cast<std::size_t>(d.y[i])].push_back(i);
  }
  for (auto& b : buckets) std::shuffle(b.begin(), b.end(), rng);

  // Round the total test size to match the paper's inference sizes exactly,
  // distributing per class proportionally (largest-remainder method).
  const auto total_test =
      static_cast<std::size_t>(std::llround(static_cast<double>(d.size()) * test_fraction));
  std::vector<std::size_t> take(buckets.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < buckets.size(); ++c) {
    const double exact = static_cast<double>(buckets[c].size()) * test_fraction;
    take[c] = static_cast<std::size_t>(std::floor(exact));
    assigned += take[c];
    remainders.emplace_back(exact - std::floor(exact), c);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t i = 0; assigned < total_test && i < remainders.size(); ++i, ++assigned) {
    ++take[remainders[i].second];
  }

  Split out;
  out.train.name = d.name;
  out.test.name = d.name;
  out.train.classes = d.classes;
  out.test.classes = d.classes;
  for (std::size_t c = 0; c < buckets.size(); ++c) {
    for (std::size_t i = 0; i < buckets[c].size(); ++i) {
      Dataset& dst = (i < take[c]) ? out.test : out.train;
      dst.x.push_back(d.x[buckets[c][i]]);
      dst.y.push_back(d.y[buckets[c][i]]);
    }
  }
  // Shuffle the assembled sets so classes interleave.
  const auto shuffle_set = [&rng](Dataset& s) {
    std::vector<std::size_t> idx(s.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::shuffle(idx.begin(), idx.end(), rng);
    Dataset t = s;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      s.x[i] = t.x[idx[i]];
      s.y[i] = t.y[idx[i]];
    }
  };
  shuffle_set(out.train);
  shuffle_set(out.test);
  return out;
}

void minmax_normalize(Split& split) {
  if (split.train.x.empty()) throw std::invalid_argument("minmax_normalize: empty train set");
  const std::size_t nf = split.train.features();
  std::vector<double> lo(nf, std::numeric_limits<double>::infinity());
  std::vector<double> hi(nf, -std::numeric_limits<double>::infinity());
  for (const auto& row : split.train.x) {
    for (std::size_t f = 0; f < nf; ++f) {
      lo[f] = std::min(lo[f], row[f]);
      hi[f] = std::max(hi[f], row[f]);
    }
  }
  const auto apply = [&](Dataset& d) {
    for (auto& row : d.x) {
      for (std::size_t f = 0; f < nf; ++f) {
        const double range = hi[f] - lo[f];
        row[f] = range > 0 ? std::clamp((row[f] - lo[f]) / range, 0.0, 1.0) : 0.0;
      }
    }
  };
  apply(split.train);
  apply(split.test);
}

// ---------------------------------------------------------------------------
// Iris.
// ---------------------------------------------------------------------------

Dataset make_iris(std::uint32_t seed) {
  // Published per-class statistics of Fisher's Iris (sepal length, sepal
  // width, petal length, petal width): means and standard deviations.
  struct ClassStats {
    double mean[4];
    double sd[4];
  };
  static constexpr ClassStats kStats[3] = {
      // setosa
      {{5.006, 3.428, 1.462, 0.246}, {0.352, 0.379, 0.174, 0.105}},
      // versicolor
      {{5.936, 2.770, 4.260, 1.326}, {0.516, 0.314, 0.470, 0.198}},
      // virginica
      {{6.588, 2.974, 5.552, 2.026}, {0.636, 0.322, 0.552, 0.275}},
  };
  // Within-class correlation between petal length and petal width (the real
  // data's dominant correlation) keeps the task's geometry.
  constexpr double kPetalCorr = 0.6;

  Dataset d;
  d.name = "iris";
  d.classes = 3;
  std::mt19937 rng(seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 50; ++i) {
      const ClassStats& st = kStats[static_cast<std::size_t>(c)];
      std::vector<double> row(4);
      const double z_shared = gauss(rng);
      for (int f = 0; f < 4; ++f) {
        double z = gauss(rng);
        if (f >= 2) z = kPetalCorr * z_shared + std::sqrt(1 - kPetalCorr * kPetalCorr) * z;
        row[static_cast<std::size_t>(f)] = st.mean[f] + st.sd[f] * z;
      }
      d.x.push_back(std::move(row));
      d.y.push_back(c);
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// WDBC.
// ---------------------------------------------------------------------------

Dataset make_wbc(std::uint32_t seed) {
  // 10 cell-nucleus base measurements; per-class (benign, malignant) means
  // and SDs approximating the published WDBC marginals (radius, texture,
  // perimeter, area, smoothness, compactness, concavity, concave points,
  // symmetry, fractal dimension).
  struct Feature {
    double mean_b, sd_b, mean_m, sd_m;
  };
  static constexpr Feature kBase[10] = {
      {12.15, 1.78, 17.46, 3.20},   // radius
      {17.91, 3.99, 21.60, 3.78},   // texture
      {78.08, 11.8, 115.4, 21.9},   // perimeter
      {462.8, 134., 978.4, 368.},   // area
      {0.0925, .013, 0.1029, .013},  // smoothness
      {0.0800, .034, 0.1452, .054},  // compactness
      {0.0461, .043, 0.1608, .075},  // concavity
      {0.0257, .016, 0.0880, .034},  // concave points
      {0.174, .025, 0.193, .028},    // symmetry
      {0.0629, .007, 0.0627, .007},  // fractal dimension
  };
  // Difficulty calibration (docs/reproducing.md#substitutions): class overlap and label noise are
  // tuned so the float32 reference lands near the paper's 90.1% — the raw
  // marginals above would make the synthetic task easier than the real WDBC
  // because the generator lacks its heavy-tailed outliers and near-boundary
  // cases.
  constexpr double kMeanPull = 0.42;   // malignant means pulled toward benign
  constexpr double kSdInflate = 2.0;
  constexpr double kLabelNoise = 0.04;
  Dataset d;
  d.name = "wbc";
  d.classes = 2;
  std::mt19937 rng(seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  const auto make_class = [&](int label, int count) {
    for (int i = 0; i < count; ++i) {
      // A latent severity factor couples the size/shape features, as in the
      // real data (radius/perimeter/area are near-collinear).
      const double severity = gauss(rng);
      std::vector<double> row;
      row.reserve(30);
      double base_vals[10];
      for (int f = 0; f < 10; ++f) {
        const Feature& ft = kBase[f];
        const double mean_m = ft.mean_b + kMeanPull * (ft.mean_m - ft.mean_b);
        const double mean = label == 0 ? ft.mean_b : mean_m;
        const double sd = (label == 0 ? ft.sd_b : ft.sd_m) * kSdInflate;
        // Size/shape features (0-3, 5-7) load on the severity factor.
        const bool loaded = (f <= 3) || (f >= 5 && f <= 7);
        const double corr = loaded ? 0.65 : 0.2;
        const double z = corr * severity + std::sqrt(1 - corr * corr) * gauss(rng);
        base_vals[f] = mean + sd * z;
      }
      // mean triple
      for (int f = 0; f < 10; ++f) row.push_back(base_vals[f]);
      // standard-error triple: proportional to the mean with noise
      for (int f = 0; f < 10; ++f) {
        row.push_back(std::fabs(base_vals[f]) * (0.05 + 0.02 * std::fabs(gauss(rng))));
      }
      // "worst" triple: mean plus a positive excursion
      for (int f = 0; f < 10; ++f) {
        const Feature& ft = kBase[f];
        const double sd = label == 0 ? ft.sd_b : ft.sd_m;
        row.push_back(base_vals[f] + sd * (0.8 + 0.5 * std::fabs(gauss(rng))));
      }
      const bool flip = unif(rng) < kLabelNoise;
      d.x.push_back(std::move(row));
      d.y.push_back(flip ? 1 - label : label);
    }
  };
  make_class(0, 357);  // benign
  make_class(1, 212);  // malignant
  return d;
}

// ---------------------------------------------------------------------------
// Mushroom.
// ---------------------------------------------------------------------------

Dataset make_mushroom(std::uint32_t seed) {
  // 22 categorical attributes with the UCI arities (total one-hot width 117
  // once the two single-valued attributes collapse). Predictiveness mirrors
  // the real data: odor is nearly decisive, spore print color / gill size /
  // gill color strong, the rest weakly informative or noise.
  //
  // For each attribute we define per-class category weights; sampling picks
  // a category from the class-conditional distribution.
  struct Attribute {
    int arity;
    double strength;  // 0 = pure noise, 1 = highly predictive
  };
  static constexpr Attribute kAttrs[22] = {
      {6, 0.30},  // cap-shape
      {4, 0.25},  // cap-surface
      {10, 0.35}, // cap-color
      {2, 0.45},  // bruises
      {9, 0.97},  // odor (nearly decisive in UCI data)
      {2, 0.25},  // gill-attachment
      {2, 0.35},  // gill-spacing
      {2, 0.75},  // gill-size
      {12, 0.70}, // gill-color
      {2, 0.45},  // stalk-shape
      {5, 0.60},  // stalk-root
      {4, 0.50},  // stalk-surface-above-ring
      {4, 0.50},  // stalk-surface-below-ring
      {9, 0.40},  // stalk-color-above-ring
      {9, 0.40},  // stalk-color-below-ring
      {1, 0.0},   // veil-type (single-valued in UCI data)
      {4, 0.30},  // veil-color
      {3, 0.40},  // ring-number
      {8, 0.75},  // ring-type
      {9, 0.85},  // spore-print-color
      {6, 0.45},  // population
      {7, 0.50},  // habitat
  };

  Dataset d;
  d.name = "mushroom";
  d.classes = 2;
  std::mt19937 rng(seed);

  // Build class-conditional category distributions per attribute, fixed by a
  // dedicated RNG so the task is identical across dataset seeds. Each
  // attribute splits its categories between the classes (even indices favour
  // edible, odd favour poisonous); `strength` controls how exclusive the
  // split is. Odor at 0.97 mirrors the UCI data, where odor alone classifies
  // ~98.5% of samples.
  std::mt19937 proto_rng(0xA11CE);
  std::vector<std::vector<std::vector<double>>> probs(22);  // [attr][class][cat]
  for (int a = 0; a < 22; ++a) {
    const int arity = kAttrs[a].arity;
    const double s = kAttrs[a].strength;
    probs[a].assign(2, std::vector<double>(static_cast<std::size_t>(arity)));
    std::uniform_real_distribution<double> u(0.3, 1.0);
    std::vector<double> shape(static_cast<std::size_t>(arity));
    for (auto& v : shape) v = u(proto_rng);
    for (int cls = 0; cls < 2; ++cls) {
      double sum = 0;
      for (int c = 0; c < arity; ++c) {
        const bool exclusive = (arity >= 2) && (c % 2 == cls);
        const double p = shape[static_cast<std::size_t>(c)] * (exclusive ? 1.0 : 1.0 - s);
        probs[a][static_cast<std::size_t>(cls)][static_cast<std::size_t>(c)] = p;
        sum += p;
      }
      for (auto& p : probs[a][static_cast<std::size_t>(cls)]) p /= sum;
    }
  }

  // Label noise caps the achievable accuracy near the paper's 96.8% float32
  // result (the UCI data is perfectly separable; the paper's network is not
  // a perfect classifier — see docs/reproducing.md#substitutions).
  constexpr double kLabelNoise = 0.025;
  std::uniform_real_distribution<double> unif(0.0, 1.0);

  const int counts[2] = {4208, 3916};  // edible, poisonous (UCI totals)
  for (int cls = 0; cls < 2; ++cls) {
    for (int i = 0; i < counts[cls]; ++i) {
      std::vector<double> row;
      row.reserve(119);
      for (int a = 0; a < 22; ++a) {
        const int arity = kAttrs[a].arity;
        if (arity <= 1) continue;  // single-valued: carries no information
        std::discrete_distribution<int> dist(
            probs[a][static_cast<std::size_t>(cls)].begin(),
            probs[a][static_cast<std::size_t>(cls)].end());
        const int cat = dist(rng);
        for (int c = 0; c < arity; ++c) row.push_back(c == cat ? 1.0 : 0.0);
      }
      d.x.push_back(std::move(row));
      d.y.push_back(unif(rng) < kLabelNoise ? 1 - cls : cls);
    }
  }
  // Interleave classes.
  std::vector<std::size_t> idx(d.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::shuffle(idx.begin(), idx.end(), rng);
  Dataset shuffled = d;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    shuffled.x[i] = d.x[idx[i]];
    shuffled.y[i] = d.y[idx[i]];
  }
  return shuffled;
}

}  // namespace dp::data
