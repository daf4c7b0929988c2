// End-to-end tests of the poll-driven server over a real TCP socket
// (127.0.0.1, ephemeral port): the acceptance criterion that TCP-served
// responses are bit-identical to direct runtime::Session calls for every
// format in the paper grid (n 5-8), protocol-v2 model routing through the
// registry (v1 backward compat to the default entry, kNotFound for unknown
// names), hot swap under concurrent in-flight requests, and wire-level
// malformed-frame handling over the network transport.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"
#include "serve/dispatcher_hold.hpp"
#include "serve/wait.hpp"

namespace dp::serve {
namespace {

using namespace std::chrono_literals;

nn::Mlp small_net(std::uint32_t seed = 42) { return nn::Mlp({6, 16, 8, 3}, seed); }

std::vector<double> random_rows(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

ServerOptions tcp_options() {
  ServerOptions opts;
  opts.batcher.max_batch = 4;
  opts.tcp_port = 0;  // ephemeral: tests never collide on a port
  return opts;
}

// The acceptance test: across the whole paper format grid, a sample that
// travels client -> TCP -> poll loop -> registry -> batcher -> Session ->
// TCP -> client produces exactly the bits a direct Session call produces.
TEST(ServeTcp, TcpServedBitsIdenticalToDirectSessionAcrossPaperGrid) {
  const nn::Mlp net = small_net();
  const std::size_t rows = 4;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const auto model = runtime::Model::create(nn::quantize(net, fmt));
      runtime::Session direct(model);
      const std::vector<double> xs = random_rows(rows, model->input_dim(), 7);

      Server server(model, tcp_options());
      ASSERT_NE(server.tcp_port(), 0) << "no bound TCP port";
      Client client = connect_tcp(server.tcp_port(), model);  // v1 -> default entry

      std::vector<std::uint64_t> ids;
      for (std::size_t i = 0; i < rows; ++i) {
        ids.push_back(client.send(
            std::span(xs).subspan(i * model->input_dim(), model->input_dim())));
      }
      for (std::size_t i = rows; i-- > 0;) {
        const Reply reply = client.receive(ids[i]);
        ASSERT_EQ(reply.status, Status::kOk) << fmt.name() << " row " << i;
        const std::span<const double> x(xs.data() + i * model->input_dim(),
                                        model->input_dim());
        const auto want = direct.forward_bits(x);
        ASSERT_EQ(reply.bits, std::vector<std::uint32_t>(want.begin(), want.end()))
            << fmt.name() << " row " << i;
      }
    }
  }
}

TEST(ServeTcp, V2RoutingServesEachRegistryEntryWithItsOwnModel) {
  // The paper's flagship multi-scenario workload: two format variants of the
  // same trained net served side by side, selected per request by name.
  const nn::Mlp net = small_net();
  const auto posit8 =
      runtime::Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 0}}));
  const auto fixed8 =
      runtime::Model::create(nn::quantize(net, num::Format{num::FixedFormat{8, 7}}));
  ModelRegistry registry;
  BatcherOptions fast;
  fast.max_batch = 4;
  registry.load("posit8", posit8, fast);
  registry.load("fixed8", fixed8, fast);

  ServerOptions opts;
  opts.tcp_port = 0;
  Server server(registry, opts);
  Client to_posit = connect_tcp(server.tcp_port(), posit8, "posit8");
  Client to_fixed = connect_tcp(server.tcp_port(), fixed8, "fixed8");
  Client v1 = connect_tcp(server.tcp_port(), posit8);  // v1: default = first loaded

  runtime::Session posit_direct(posit8);
  runtime::Session fixed_direct(fixed8);
  const std::vector<double> xs = random_rows(6, posit8->input_dim(), 11);
  for (std::size_t i = 0; i < 6; ++i) {
    const std::span<const double> x(xs.data() + i * posit8->input_dim(),
                                    posit8->input_dim());
    const auto want_posit = posit_direct.forward_bits(x);
    const auto want_fixed = fixed_direct.forward_bits(x);
    EXPECT_EQ(to_posit.forward_bits(x).bits,
              std::vector<std::uint32_t>(want_posit.begin(), want_posit.end()));
    EXPECT_EQ(to_fixed.forward_bits(x).bits,
              std::vector<std::uint32_t>(want_fixed.begin(), want_fixed.end()));
    EXPECT_EQ(v1.forward_bits(x).bits,
              std::vector<std::uint32_t>(want_posit.begin(), want_posit.end()));
  }
  // The two entries answered on their own batchers.
  EXPECT_GE(registry.stats("posit8")->completed, 12u);
  EXPECT_GE(registry.stats("fixed8")->completed, 6u);
}

TEST(ServeTcp, UnknownModelNameGetsNotFoundAndTheConnectionSurvives) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  Server server(model, tcp_options());
  // The name is routed per request, so connecting with a bogus name works;
  // every request on it earns kNotFound.
  Client client = connect_tcp(server.tcp_port(), model, "no-such-model");
  const std::vector<double> x = random_rows(1, model->input_dim(), 13);

  const Reply reply = client.forward_bits(x);
  EXPECT_EQ(reply.status, Status::kNotFound);
  EXPECT_TRUE(reply.bits.empty());

  // Same connection, same server: a well-named request still serves. (The
  // kNotFound is a response, not a connection drop.)
  const Reply again = client.forward_bits(x);
  EXPECT_EQ(again.status, Status::kNotFound);
  Client good = connect_tcp(server.tcp_port(), model, "default");
  runtime::Session direct(model);
  EXPECT_EQ(good.predict(x), direct.predict(x));

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.not_found, 2u);
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST(ServeTcp, HotSwapUnderConcurrentInFlightRequestsDropsNothing) {
  // Client threads keep blocking round trips in flight over TCP while the
  // main thread hot-swaps the served entry repeatedly. Both models quantize
  // the same trained net in the same format, so every reply — before,
  // during, or after any swap — must be kOk and bit-identical to the single
  // reference; a kShutdown/kQueueFull/empty reply would mean the swap
  // dropped or corrupted an in-flight request.
  const auto model_a =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  const auto model_b =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  ModelRegistry registry;
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.queue_capacity = 1u << 14;
  registry.load("m", model_a, opts);

  ServerOptions sopts;
  sopts.tcp_port = 0;
  Server server(registry, sopts);

  const std::vector<double> xs = random_rows(1, model_a->input_dim(), 17);
  runtime::Session direct(model_a);
  const auto want_span = direct.forward_bits(std::span<const double>(xs));
  const std::vector<std::uint32_t> want(want_span.begin(), want_span.end());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0}, wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Client client = connect_tcp(server.tcp_port(), model_a, "m");
      (void)t;
      while (!stop.load()) {
        const Reply reply = client.forward_bits(std::span<const double>(xs));
        if (reply.status != Status::kOk || reply.bits != want) wrong.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }

  for (int swap = 0; swap < 20; ++swap) {
    registry.load("m", swap % 2 == 0 ? model_b : model_a, opts);
    std::this_thread::sleep_for(1ms);
  }
  const std::uint64_t mark = served.load();
  const bool served_after_swaps = wait_until([&] { return served.load() >= mark + 30; });
  stop.store(true);
  for (std::thread& t : clients) t.join();

  ASSERT_TRUE(served_after_swaps) << "traffic stalled after the last swap";
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(registry.counters().swaps, 20u);

  // Bit-identity after the dust settles: the post-swap entry still answers
  // exactly like a direct Session on the surviving model.
  Client after = connect_tcp(server.tcp_port(), model_a, "m");
  EXPECT_EQ(after.forward_bits(std::span<const double>(xs)).bits, want);
}

TEST(ServeTcp, HotLoadOfANewNameIsVisibleToNewClients) {
  const nn::Mlp net = small_net();
  const auto first =
      runtime::Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 0}}));
  ModelRegistry registry;
  registry.load("first", first);
  ServerOptions opts;
  opts.tcp_port = 0;
  Server server(registry, opts);

  // Load a second entry while the server is live — no restart, no pause.
  const auto second =
      runtime::Model::create(nn::quantize(net, num::Format{num::FloatFormat{4, 3}}));
  registry.load("second", second);

  const std::vector<double> x = random_rows(1, second->input_dim(), 19);
  Client client = connect_tcp(server.tcp_port(), second, "second");
  runtime::Session direct(second);
  const auto want = direct.forward_bits(std::span<const double>(x));
  EXPECT_EQ(client.forward_bits(x).bits,
            std::vector<std::uint32_t>(want.begin(), want.end()));

  // And unload makes it vanish: kNotFound, while "first" keeps serving.
  registry.unload("second");
  EXPECT_EQ(client.forward_bits(x).status, Status::kNotFound);
  Client still = connect_tcp(server.tcp_port(), first, "first");
  runtime::Session first_direct(first);
  EXPECT_EQ(still.predict(x), first_direct.predict(x));
}

TEST(ServeTcp, HalfClosedClientStillReceivesEveryPipelinedResponse) {
  // send -> close() (half-close) -> receive: the loop sees EOF while the
  // responses may still be in flight through the batcher. The graceful-close
  // ordering (outstanding checked before the write queue) must hold the
  // connection open until every response is enqueued AND flushed.
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  ServerOptions opts = tcp_options();
  opts.batcher.max_batch = 2;
  runtime::Session direct(model);
  const std::size_t rows = 6;
  const std::vector<double> xs = random_rows(rows, model->input_dim(), 31);
  for (int round = 0; round < 20; ++round) {  // repeat: the race is a window
    Server server(model, opts);
    Client client = connect_tcp(server.tcp_port(), model);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < rows; ++i) {
      ids.push_back(client.send(
          std::span(xs).subspan(i * model->input_dim(), model->input_dim())));
    }
    client.close();  // half-close: server reads EOF, responses still pending
    for (std::size_t i = 0; i < rows; ++i) {
      const Reply reply = client.receive(ids[i]);
      ASSERT_EQ(reply.status, Status::kOk) << "round " << round << " row " << i;
      const std::span<const double> x(xs.data() + i * model->input_dim(),
                                      model->input_dim());
      const auto want = direct.forward_bits(x);
      ASSERT_EQ(reply.bits, std::vector<std::uint32_t>(want.begin(), want.end()));
    }
    EXPECT_EQ(client.receive_frame(), std::nullopt);  // then clean EOF back
  }
}

TEST(ServeTcp, CorruptFrameOverTcpDropsThatConnectionOnly) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  Server server(model, tcp_options());
  Client bad = connect_tcp(server.tcp_port(), model);
  const std::vector<std::uint8_t> garbage(32, 0x5A);
  bad.send_bytes(garbage);
  EXPECT_EQ(bad.receive_frame(), std::nullopt);  // dropped

  const ServerStats stats =
      wait_for_stats(server, [](const ServerStats& s) { return s.bad_frames != 0; });
  EXPECT_EQ(stats.bad_frames, 1u);

  Client fresh = connect_tcp(server.tcp_port(), model);
  const std::vector<double> x = random_rows(1, model->input_dim(), 23);
  runtime::Session direct(model);
  EXPECT_EQ(fresh.predict(x), direct.predict(x));
}

TEST(ServeTcp, StopDrainsOverTcpAndRefusesNewConnects) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  ServerOptions opts = tcp_options();
  opts.batcher.max_batch = 64;
  Server server(model, opts);
  Client client = connect_tcp(server.tcp_port(), model);
  const std::vector<double> x = random_rows(1, model->input_dim(), 29);
  // Park the request behind the held dispatcher until stop() drains it.
  DynamicBatcher& lane = server.registry().acquire("")->lane(0);
  std::future<void> stopped;  // declared before the hold: joined after it opens
  DispatcherHold hold(lane, x);
  ASSERT_TRUE(hold.held());
  const std::uint64_t id = client.send(x);
  // Over TCP the send only queues bytes in the kernel; wait until the loop
  // has read and admitted the request, or stop()'s drain would (correctly)
  // answer it kShutdown instead of serving it.
  const ServerStats st =
      wait_for_stats(server, [](const ServerStats& s) { return s.batcher.queue_depth != 0; });
  ASSERT_EQ(st.batcher.queue_depth, 1u);

  stopped = std::async(std::launch::async, [&] { server.stop(); });
  EXPECT_TRUE(release_into_drain(hold));
  stopped.get();
  const Reply reply = client.receive(id);
  EXPECT_EQ(reply.status, Status::kOk);
  runtime::Session direct(model);
  const auto want = direct.forward_bits(std::span<const double>(x));
  EXPECT_EQ(reply.bits, std::vector<std::uint32_t>(want.begin(), want.end()));
  EXPECT_EQ(client.receive_frame(), std::nullopt);  // clean EOF after stop

  // The listener is gone with the loop: a fresh TCP connect is refused.
  EXPECT_THROW(connect_tcp(server.tcp_port(), model), TransportError);
}

}  // namespace
}  // namespace dp::serve
