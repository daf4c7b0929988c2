// Acceptance tests for the runtime Model/Session API: a default Session
// (the blocked kernels) must equal the legacy path — the paper's step
// recurrence, ForwardPath::kStep — bit-for-bit for every format in the paper
// sweep grid (n in [5,8]), across batch sizes {1, 7, 64} and pool sizes
// {1, 2, 8}. Plus the Session-level contracts: zero-copy single-sample
// spans, step-vs-blocked equality, the DP_FORCE_STEP_PATH switch, input
// validation, and model sharing.

#include "runtime/session.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"

namespace dp::runtime {
namespace {

// An untrained (random-init) net is enough: blocked-vs-step equality is a
// property of the execution engine, not of the weights.
nn::Mlp random_net() { return nn::Mlp({6, 16, 8, 3}, /*seed=*/42); }

std::vector<double> random_batch(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

TEST(RuntimeSession, BitIdenticalToLegacyAcrossSweepGridBatchAndPoolSizes) {
  const nn::Mlp net = random_net();
  const std::vector<double> flat = random_batch(64, net.input_dim(), 5);
  const BatchView all(flat, net.input_dim());

  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const nn::QuantizedNetwork qnet = nn::quantize(net, fmt);
      // Step-path reference, one single-sample call per row.
      Session step(Model::create(qnet, ForwardPath::kStep));
      std::vector<std::vector<std::uint32_t>> ref_bits;
      std::vector<int> ref_pred;
      for (std::size_t i = 0; i < all.rows(); ++i) {
        const auto bits = step.forward_bits(all.row(i));
        ref_bits.emplace_back(bits.begin(), bits.end());
        ref_pred.push_back(step.predict(all.row(i)));
      }

      const auto model = Model::create(qnet);
      for (const std::size_t pool : {1u, 2u, 8u}) {
        Session session(model, {pool});
        for (const std::size_t batch : {1u, 7u, 64u}) {
          const BatchView view(std::span<const double>(flat).first(batch * all.row_width()),
                               all.row_width());
          const BatchResult<std::uint32_t> bits = session.forward_bits(view);
          ASSERT_EQ(bits.rows(), batch);
          for (std::size_t i = 0; i < batch; ++i) {
            ASSERT_EQ(std::vector<std::uint32_t>(bits.row(i).begin(), bits.row(i).end()),
                      ref_bits[i])
                << fmt.name() << " pool " << pool << " batch " << batch << " row " << i;
          }
          const std::vector<int> pred = session.predict(view);
          ASSERT_EQ(pred, std::vector<int>(ref_pred.begin(),
                                           ref_pred.begin() + static_cast<long>(batch)))
              << fmt.name() << " pool " << pool << " batch " << batch;
        }
        // The single-sample calls agree with the step path too.
        for (std::size_t i = 0; i < 8; ++i) {
          const auto b = session.forward_bits(all.row(i));
          ASSERT_EQ(std::vector<std::uint32_t>(b.begin(), b.end()), ref_bits[i])
              << fmt.name() << " single-sample row " << i;
          ASSERT_EQ(session.predict(all.row(i)), ref_pred[i]) << fmt.name() << " row " << i;
        }
      }
    }
  }
}

TEST(RuntimeSession, SingleSampleSpansMatchBatchRows) {
  const nn::Mlp net = random_net();
  const num::Format fmt{num::PositFormat{8, 1}};
  Session session(Model::create(nn::quantize(net, fmt)), {2});
  const std::vector<double> flat = random_batch(16, net.input_dim(), 9);
  const BatchView view(flat, net.input_dim());

  const BatchResult<std::uint32_t> bits = session.forward_bits(view);
  const BatchResult<double> scores = session.forward(view);
  const std::vector<int> preds = session.predict(view);
  for (std::size_t i = 0; i < view.rows(); ++i) {
    const auto b = session.forward_bits(view.row(i));
    EXPECT_EQ(std::vector<std::uint32_t>(b.begin(), b.end()),
              std::vector<std::uint32_t>(bits.row(i).begin(), bits.row(i).end()));
    const auto s = session.forward(view.row(i));
    EXPECT_EQ(std::vector<double>(s.begin(), s.end()),
              std::vector<double>(scores.row(i).begin(), scores.row(i).end()));
    EXPECT_EQ(session.predict(view.row(i)), preds[i]);
  }
}

TEST(RuntimeSession, StepAndFusedModelsAreBitIdentical) {
  // The default model (blocked kernels) and the step model, one format per
  // family, on a pool of two.
  const nn::Mlp net = random_net();
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{8, 0}}, num::Format{num::FloatFormat{4, 3}},
        num::Format{num::FixedFormat{8, 6}}}) {
    Session blocked(Model::create(nn::quantize(net, fmt)), {2});
    Session step(Model::create(nn::quantize(net, fmt), ForwardPath::kStep), {2});
    const std::vector<double> flat = random_batch(24, net.input_dim(), 21);
    const BatchView view(flat, net.input_dim());
    EXPECT_EQ(blocked.forward_bits(view).data, step.forward_bits(view).data) << fmt.name();
  }
}

TEST(RuntimeSession, EnvVarForcesStepPath) {
  const nn::QuantizedNetwork qnet =
      nn::quantize(random_net(), num::Format{num::PositFormat{8, 0}});
  ASSERT_EQ(::setenv("DP_FORCE_STEP_PATH", "1", /*overwrite=*/1), 0);
  const Model forced(qnet);  // would default to kBlocked
  ::unsetenv("DP_FORCE_STEP_PATH");
  EXPECT_EQ(forced.forward_path(), ForwardPath::kStep);
  EXPECT_STREQ(forced.kernel_name(), "none");
  // "0" and unset leave the default alone.
  ASSERT_EQ(::setenv("DP_FORCE_STEP_PATH", "0", 1), 0);
  const Model not_forced(qnet);
  ::unsetenv("DP_FORCE_STEP_PATH");
  EXPECT_EQ(not_forced.forward_path(), ForwardPath::kBlocked);
}

TEST(RuntimeSession, ForwardBitsIntoWritesCallerBufferIdentically) {
  // The serving hook (serve::DynamicBatcher writes micro-batch results
  // straight into response storage): same bits as the allocating overload,
  // and a strict size check on the caller's buffer.
  const nn::Mlp net = random_net();
  Session session(Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 0}})), {2});
  const std::vector<double> flat = random_batch(10, net.input_dim(), 33);
  const BatchView view(flat, net.input_dim());

  const BatchResult<std::uint32_t> want = session.forward_bits(view);
  std::vector<std::uint32_t> out(view.rows() * session.model().output_dim(), 0xffffffffu);
  session.forward_bits_into(view, out);
  EXPECT_EQ(out, want.data);

  std::vector<std::uint32_t> wrong_size(out.size() - 1);
  EXPECT_THROW(session.forward_bits_into(view, wrong_size), std::invalid_argument);
}

TEST(RuntimeSession, AccuracyMatchesLegacyAndIsPoolInvariant) {
  const nn::Mlp net = random_net();
  const std::vector<double> flat = random_batch(50, net.input_dim(), 11);
  const BatchView view(flat, net.input_dim());
  std::vector<int> ys;
  for (std::size_t i = 0; i < view.rows(); ++i) ys.push_back(static_cast<int>(i % 3));
  const nn::QuantizedNetwork qnet = nn::quantize(net, num::Format{num::PositFormat{8, 0}});
  const double ref = Session(Model::create(qnet, ForwardPath::kStep)).accuracy(view, ys);
  const auto model = Model::create(qnet);
  for (const std::size_t pool : {1u, 2u, 8u}) {
    Session session(model, {pool});
    EXPECT_EQ(session.accuracy(view, ys), ref) << "pool " << pool;
  }
}

TEST(RuntimeSession, SharedModelServesManySessions) {
  const nn::Mlp net = random_net();
  const auto model = Model::create(nn::quantize(net, num::Format{num::PositFormat{7, 0}}));
  Session a(model, {1});
  Session b(model, {4});
  EXPECT_EQ(a.model_ptr().get(), b.model_ptr().get());
  const std::vector<double> flat = random_batch(12, net.input_dim(), 3);
  const BatchView view(flat, net.input_dim());
  EXPECT_EQ(a.predict(view), b.predict(view));
  EXPECT_EQ(b.num_threads(), 4u);
}

TEST(RuntimeSession, ValidatesInputs) {
  const nn::Mlp net = random_net();
  Session session(Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 1}})), {2});

  EXPECT_THROW(Session(nullptr), std::invalid_argument);

  // Batch row width must match the model input width.
  const std::vector<double> flat(12, 0.5);
  EXPECT_THROW(session.forward_bits(BatchView(flat, 4)), std::invalid_argument);
  EXPECT_THROW(session.predict(BatchView(flat, 4)), std::invalid_argument);

  // Single-sample calls take exactly input_dim() values.
  EXPECT_THROW(session.predict(std::span<const double>(flat.data(), 4)),
               std::invalid_argument);

  // Label count must match the batch.
  const BatchView ok(flat, net.input_dim());
  const std::vector<int> labels(ok.rows() + 1, 0);
  EXPECT_THROW(session.accuracy(ok, labels), std::invalid_argument);

  // Empty batches are fine everywhere.
  const BatchView empty(std::span<const double>{}, net.input_dim());
  EXPECT_TRUE(session.predict(empty).empty());
  EXPECT_EQ(session.forward_bits(empty).rows(), 0u);
  EXPECT_EQ(session.accuracy(empty, std::span<const int>{}), 0.0);
}

TEST(RuntimeSession, HardwareConcurrencyDefaultWorks) {
  const nn::Mlp net = random_net();
  Session session(Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 1}})),
                  {0});  // 0 = hardware concurrency
  EXPECT_GE(session.num_threads(), 1u);
  const std::vector<double> flat = random_batch(5, net.input_dim(), 1);
  EXPECT_EQ(session.predict(BatchView(flat, net.input_dim())).size(), 5u);
}

}  // namespace
}  // namespace dp::runtime
