// Acceptance tests for the register-blocked multi-sample Session path: for
// every pool size and batch shape (tile-aligned and ragged), a Session
// driving the blocked kernels must be bit-identical to a Session over the
// per-sample step recurrence (ForwardPath::kStep) — and to the forced
// scalar kernel (DP_FORCE_SCALAR_KERNEL). Specs with no kernel fall back to
// the step recurrence. Plus the serve-layer contract: tile alignment never
// holds back a lone request.

#include "runtime/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <random>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "serve/batcher.hpp"

namespace dp::runtime {
namespace {

nn::Mlp random_net() { return nn::Mlp({6, 16, 8, 3}, /*seed=*/42); }

std::vector<double> random_batch(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

std::vector<num::Format> rep_formats() {
  return {num::Format{num::PositFormat{8, 0}}, num::Format{num::PositFormat{5, 1}},
          num::Format{num::FloatFormat{4, 3}}, num::Format{num::FixedFormat{8, 6}}};
}

TEST(BlockedSession, BitIdenticalToPerSamplePathAcrossPoolAndBatchShapes) {
  const nn::Mlp net = random_net();
  for (const num::Format& fmt : rep_formats()) {
    const auto model = Model::create(nn::quantize(net, fmt));
    ASSERT_TRUE(model->blocked_available()) << fmt.name();
    const std::size_t tile = model->preferred_tile();
    ASSERT_GE(tile, 2u) << fmt.name();

    // Batch shapes around the tile boundary plus a long ragged burst.
    const std::vector<std::size_t> shapes{1,        tile - 1, tile,
                                          tile + 1, 2 * tile + 3, 64};
    const std::size_t max_rows = *std::max_element(shapes.begin(), shapes.end());
    const std::vector<double> flat = random_batch(max_rows, net.input_dim(), 5);

    // Reference: the per-sample step recurrence, pool of 1.
    Session reference(Model::create(nn::quantize(net, fmt), ForwardPath::kStep));
    EXPECT_EQ(reference.model().preferred_tile(), 1u);

    for (const std::size_t pool : {1u, 2u, 8u}) {
      Session blocked(model, {.num_threads = pool, .pool = nullptr});
      EXPECT_EQ(blocked.model().preferred_tile(), tile);
      for (const std::size_t rows : shapes) {
        const BatchView view(std::span<const double>(flat).first(rows * net.input_dim()),
                             net.input_dim());
        ASSERT_EQ(blocked.forward_bits(view).data, reference.forward_bits(view).data)
            << fmt.name() << " pool=" << pool << " rows=" << rows << " tile=" << tile;
        EXPECT_EQ(blocked.predict(view), reference.predict(view))
            << fmt.name() << " pool=" << pool << " rows=" << rows;
        EXPECT_EQ(blocked.forward(view).data, reference.forward(view).data)
            << fmt.name() << " pool=" << pool << " rows=" << rows;
      }
    }
  }
}

TEST(BlockedSession, ForcedScalarKernelIsBitIdenticalToDispatched) {
  // DP_FORCE_SCALAR_KERNEL pins dispatch at Model construction, so a model
  // built under the env var runs the portable kernel; its outputs must match
  // a dispatched model (AVX2 where available) exactly.
  // posit<8,1> needs a banded (two-limb) AVX2 lane, so on an AVX2 host the
  // comparison really is AVX2 against the portable kernel.
  const nn::Mlp net = random_net();
  const num::Format fmt{num::PositFormat{8, 1}};
  const char* outer_env = std::getenv("DP_FORCE_SCALAR_KERNEL");
  const bool had_outer = outer_env != nullptr;
  const std::string outer(had_outer ? outer_env : "");
  const auto dispatched = Model::create(nn::quantize(net, fmt));
#if defined(DP_HAVE_AVX2_KERNEL)
  if ((outer.empty() || outer == "0") && __builtin_cpu_supports("avx2")) {
    EXPECT_STREQ(dispatched->kernel_name(), "avx2");
  }
#endif

  setenv("DP_FORCE_SCALAR_KERNEL", "1", /*overwrite=*/1);
  const auto forced = Model::create(nn::quantize(net, fmt));
  if (had_outer) {
    setenv("DP_FORCE_SCALAR_KERNEL", outer.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("DP_FORCE_SCALAR_KERNEL");
  }

  ASSERT_TRUE(forced->blocked_available());
  EXPECT_STREQ(forced->kernel_name(), "scalar-blocked");

  Session a(dispatched, {2, nullptr});
  Session b(forced, {2, nullptr});
  const std::size_t rows = 2 * std::max(a.model().preferred_tile(),
                                        b.model().preferred_tile()) + 3;
  const std::vector<double> flat = random_batch(rows, net.input_dim(), 13);
  const BatchView view(flat, net.input_dim());
  EXPECT_EQ(a.forward_bits(view).data, b.forward_bits(view).data)
      << "dispatched kernel=" << dispatched->kernel_name();
}

TEST(BlockedSession, StepPathModelHasNoBlockedKernels) {
  const nn::Mlp net = random_net();
  const auto model =
      Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 0}}),
                    ForwardPath::kStep);
  EXPECT_FALSE(model->blocked_available());
  EXPECT_EQ(model->preferred_tile(), 1u);
  EXPECT_STREQ(model->kernel_name(), "none");
  // A Session over a step model transparently runs the per-sample path.
  Session session(model, {2, nullptr});
  EXPECT_EQ(session.model().preferred_tile(), 1u);
  const std::vector<double> flat = random_batch(9, net.input_dim(), 3);
  EXPECT_EQ(session.predict(BatchView(flat, net.input_dim())).size(), 9u);

  // posit<16,3> needs a wider register than any kernel offers (its bound
  // exceeds 250 bits; the units run the RTL-faithful posit model), so even
  // the default path falls back to the step recurrence.
  const num::Format wide{num::PositFormat{16, 3}};
  const auto fallback = Model::create(nn::quantize(net, wide));
  EXPECT_EQ(fallback->forward_path(), ForwardPath::kBlocked);
  EXPECT_FALSE(fallback->blocked_available());
  EXPECT_STREQ(fallback->kernel_name(), "none");
  Session wide_session(fallback, {2, nullptr});
  Session wide_step(Model::create(nn::quantize(net, wide), ForwardPath::kStep));
  const BatchView view(flat, net.input_dim());
  EXPECT_EQ(wide_session.forward_bits(view).data, wide_step.forward_bits(view).data);
}

TEST(BlockedSession, BatcherTileAlignedFlushesHonorMaxWaitForLoneRequests) {
  const nn::Mlp net = random_net();
  const auto model = Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 0}}));
  const std::size_t tile = model->preferred_tile();
  ASSERT_GE(tile, 2u);

  serve::BatcherOptions opts;
  opts.max_batch = 4 * tile;
  serve::DynamicBatcher batcher(model, opts);
  EXPECT_EQ(batcher.tile(), tile);

  // A lone request (far fewer than one tile pending) leaves at once as a
  // batch of one: tile alignment only trims carves that leave rows queued.
  const std::vector<double> x(net.input_dim(), 0.25);
  std::future<serve::Reply> lone = batcher.submit(x);
  ASSERT_EQ(lone.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  const serve::Reply reply = lone.get();
  EXPECT_EQ(reply.status, serve::Status::kOk);
  EXPECT_EQ(batcher.stats().batches, 1u);

  // A burst larger than several tiles: every request completes with bits
  // identical to a direct Session on the same rows.
  const std::size_t burst = 2 * tile + 3;
  const std::vector<double> flat = random_batch(burst, net.input_dim(), 29);
  const BatchView view(flat, net.input_dim());
  std::vector<std::future<serve::Reply>> futs;
  for (std::size_t i = 0; i < burst; ++i) futs.push_back(batcher.submit(view.row(i)));

  Session direct(model, {1, nullptr});
  const BatchResult<std::uint32_t> want = direct.forward_bits(view);
  for (std::size_t i = 0; i < burst; ++i) {
    const serve::Reply r = futs[i].get();
    ASSERT_EQ(r.status, serve::Status::kOk) << "request " << i;
    EXPECT_EQ(r.bits, std::vector<std::uint32_t>(want.row(i).begin(), want.row(i).end()))
        << "request " << i;
  }
  batcher.shutdown();
  const serve::BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.completed, burst + 1);
}

}  // namespace
}  // namespace dp::runtime
