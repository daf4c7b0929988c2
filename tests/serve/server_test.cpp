// End-to-end serving tests over the real wire (socketpair transport, framed
// protocol, dynamic batcher, Session inference): the acceptance criterion
// that served responses are bit-identical to direct runtime::Session calls
// for every format in the paper grid (n 5-8), plus cross-client coalescing,
// pipelined out-of-order receive, wire-level backpressure and malformed
// input/frame handling.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
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

nn::Mlp small_net() { return nn::Mlp({6, 16, 8, 3}, /*seed=*/42); }

std::vector<double> random_rows(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

// The acceptance test: across the whole paper format grid, a sample that
// travels client -> frame -> batcher -> Session -> frame -> client produces
// exactly the bits (and the prediction) a direct Session call produces. This
// leans on RNE quantization being idempotent: the client quantizes features
// into wire patterns, the server decodes them back to doubles, and the
// Session's own quantization lands on the same patterns.
TEST(ServeServer, ServedBitsIdenticalToDirectSessionAcrossPaperGrid) {
  const nn::Mlp net = small_net();
  const std::size_t rows = 6;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const auto model = runtime::Model::create(nn::quantize(net, fmt));
      runtime::Session direct(model);
      const std::vector<double> xs = random_rows(rows, model->input_dim(), 7);

      ServerOptions opts;
      opts.batcher.max_batch = 4;
      Server server(model, opts);
      Client client = server.connect();

      // Pipelined sends, received in reverse order: exercises the response
      // demux regardless of the micro-batch boundaries the rows land on.
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
      // And the decoded convenience calls agree with the direct Session.
      const std::span<const double> x0(xs.data(), model->input_dim());
      EXPECT_EQ(client.predict(x0), direct.predict(x0)) << fmt.name();
    }
  }
}

TEST(ServeServer, RequestsFromTwoClientsCoalesceIntoOneMicroBatch) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  ServerOptions opts;
  opts.batcher.max_batch = 2;
  Server server(model, opts);
  Client a = server.connect();
  Client b = server.connect();

  const std::vector<double> xs = random_rows(2, model->input_dim(), 9);
  const std::span<const double> xa(xs.data(), model->input_dim());
  const std::span<const double> xb(xs.data() + model->input_dim(), model->input_dim());
  // Hold the only dispatcher so both requests queue; when it frees, one
  // carve takes them together.
  DispatcherHold hold(server.registry().acquire("")->lane(0), xa);
  ASSERT_TRUE(hold.held());
  const std::uint64_t ida = a.send(xa);
  const std::uint64_t idb = b.send(xb);
  ASSERT_EQ(wait_for_stats(server, [](const ServerStats& s) {
              return s.batcher.queue_depth == 2;
            }).batcher.queue_depth,
            2u);
  hold.release();

  runtime::Session direct(model);
  const auto wa = direct.forward_bits(xa);
  EXPECT_EQ(a.receive(ida).bits, std::vector<std::uint32_t>(wa.begin(), wa.end()));
  const auto wb = direct.forward_bits(xb);
  EXPECT_EQ(b.receive(idb).bits, std::vector<std::uint32_t>(wb.begin(), wb.end()));

  // The frames_out counter is bumped just after the write the client already
  // saw; give it a beat.
  const ServerStats stats =
      wait_for_stats(server, [](const ServerStats& s) { return s.frames_out >= 2; });
  EXPECT_EQ(stats.connections, 2u);
  EXPECT_EQ(stats.batcher.batches, 2u);  // the held row, then both clients' rows
  EXPECT_EQ(stats.batcher.completed, 3u);
  EXPECT_EQ(stats.frames_in, 2u);
  EXPECT_EQ(stats.frames_out, 2u);
}

TEST(ServeServer, QueueFullSurfacesOnTheWireAndDrainAnswersTheAccepted) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  ServerOptions opts;
  opts.batcher.max_batch = 8;
  opts.batcher.queue_capacity = 1;
  Server server(model, opts);
  Client client = server.connect();

  const std::vector<double> xs = random_rows(3, model->input_dim(), 11);
  const std::size_t dim = model->input_dim();
  // Park the accepted request behind the held dispatcher until stop().
  DynamicBatcher& lane = server.registry().acquire("")->lane(0);
  std::future<void> stopped;  // declared before the hold: joined after it opens
  DispatcherHold hold(lane, std::span(xs).subspan(0, dim));
  ASSERT_TRUE(hold.held());
  const std::uint64_t id1 = client.send(std::span(xs).subspan(0, dim));
  const std::uint64_t id2 = client.send(std::span(xs).subspan(dim, dim));
  const std::uint64_t id3 = client.send(std::span(xs).subspan(2 * dim, dim));

  EXPECT_EQ(client.receive(id2).status, Status::kQueueFull);
  EXPECT_EQ(client.receive(id3).status, Status::kQueueFull);

  // Orderly shutdown answers the parked request before closing: the hold
  // opens only once the drain has begun.
  stopped = std::async(std::launch::async, [&] { server.stop(); });
  EXPECT_TRUE(release_into_drain(hold));
  stopped.get();
  const Reply first = client.receive(id1);
  EXPECT_EQ(first.status, Status::kOk);
  runtime::Session direct(model);
  const auto want = direct.forward_bits(std::span(xs).subspan(0, dim));
  EXPECT_EQ(first.bits, std::vector<std::uint32_t>(want.begin(), want.end()));

  // After stop, the stream ends cleanly and new connections are refused.
  EXPECT_EQ(client.receive_frame(), std::nullopt);
  EXPECT_THROW(server.connect(), std::runtime_error);
}

TEST(ServeServer, WrongFeatureCountGetsBadRequestWithoutTouchingTheBatcher) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  Server server(model, {});
  Client client = server.connect();

  Frame bad;
  bad.type = FrameType::kRequest;
  bad.request_id = 77;
  bad.payload.assign(model->input_dim() + 2, 0);  // wrong feature count
  client.send_frame(bad);

  const std::optional<Frame> resp = client.receive_frame();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, FrameType::kResponse);
  EXPECT_EQ(resp->request_id, 77u);
  EXPECT_EQ(resp->status, Status::kBadRequest);
  EXPECT_TRUE(resp->payload.empty());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.bad_requests, 1u);
  EXPECT_EQ(stats.batcher.accepted, 0u);
}

TEST(ServeServer, CorruptFrameDropsTheConnection) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  Server server(model, {});
  Client client = server.connect();

  const std::vector<std::uint8_t> garbage(32, 0x5A);
  client.send_bytes(garbage);

  // The server cannot resync a byte stream after a framing error: it counts
  // the frame and closes, which the client sees as end-of-stream.
  EXPECT_EQ(client.receive_frame(), std::nullopt);
  // The counter update races the client-visible close by a hair; poll it.
  const ServerStats stats =
      wait_for_stats(server, [](const ServerStats& s) { return s.bad_frames != 0; });
  EXPECT_EQ(stats.bad_frames, 1u);

  // A fresh connection still works; the server survived the bad client.
  Client fresh = server.connect();
  const std::vector<double> x = random_rows(1, model->input_dim(), 13);
  runtime::Session direct(model);
  EXPECT_EQ(fresh.predict(x), direct.predict(x));
}

TEST(ServeServer, ClientValidatesLocally) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  Server server(model, {});
  Client client = server.connect();
  const std::vector<double> short_x(model->input_dim() - 1, 0.5);
  EXPECT_THROW(client.send(short_x), std::invalid_argument);
  EXPECT_THROW(client.receive(42), std::invalid_argument);  // never sent
  EXPECT_THROW(Server(nullptr, {}), std::invalid_argument);
  EXPECT_THROW(Server(model, {.write_timeout = 0ms, .tcp_port = {}, .metrics_port = {}}),
               std::invalid_argument);
}

TEST(ServeServer, StalledClientIsDroppedAndNeverBlocksStopOrOtherClients) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  ServerOptions opts;
  opts.batcher.max_batch = 8;
  opts.write_timeout = 50ms;  // a client not reading counts as dead after this
  Server server(model, opts);
  Client stalled = server.connect();

  // Flood without ever receiving. Once the response direction's socket
  // buffer fills, the server's writes stop making progress, and after
  // write_timeout it drops the connection (the dp_shard_dropped counter).
  // The flood ends on that counter or a deadline, never on a send count:
  // how many sends it takes to fill the buffer and outlast the timeout
  // depends on the host.
  const std::vector<double> x = random_rows(1, model->input_dim(), 19);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  bool send_failed = false;
  while (server.stats().dropped == 0 && std::chrono::steady_clock::now() < deadline) {
    if (send_failed) {
      std::this_thread::sleep_for(1ms);
      continue;
    }
    try {
      stalled.send(x);
    } catch (const TransportError&) {
      send_failed = true;
    }
  }
  ASSERT_EQ(server.stats().dropped, 1u) << "server kept buffering for a client that reads nothing";
  // The server closed its end, so the stalled client's sends now fail.
  EXPECT_THROW(stalled.send(x), TransportError);

  // The stalled client's accepted backlog (up to queue_capacity rows) still
  // drains through the batcher — its responses just fail fast against the
  // dropped connection. Wait it out, then a well-behaved client must be
  // served promptly.
  EXPECT_EQ(wait_for_stats(server, [](const ServerStats& s) {
              return s.batcher.queue_depth == 0;
            }).batcher.queue_depth,
            0u)
      << "backlog never drained";
  Client fresh = server.connect();
  runtime::Session direct(model);
  EXPECT_EQ(fresh.predict(x), direct.predict(x));

  // And stop() drains + returns instead of deadlocking on the stuck write.
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
}

TEST(ServeServer, ClosedConnectionsArePrunedSoChurnDoesNotLeakFds) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  Server server(model, {});
  const std::vector<double> x = random_rows(1, model->input_dim(), 23);

  const auto open_fds = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      ++n;
    }
    return n;
  };
  const std::size_t before = open_fds();
  for (int i = 0; i < 50; ++i) {
    Client c = server.connect();
    (void)c.predict(x);
  }  // each Client closes on destruction; connect() prunes the dead entries
  const std::size_t after = open_fds();
  // 50 leaked connections would be 50 fds (plus threads); allow slack for
  // the most recent not-yet-pruned ones and unrelated runtime fds.
  EXPECT_LT(after, before + 20) << "connection churn is leaking descriptors";
}

TEST(ServeServer, StopIsIdempotentAndDestructorSafeWithLiveClients) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  auto server = std::make_unique<Server>(model, ServerOptions{});
  Client client = server->connect();
  const std::vector<double> x = random_rows(1, model->input_dim(), 17);
  runtime::Session direct(model);
  EXPECT_EQ(client.predict(x), direct.predict(x));
  server->stop();
  server->stop();
  server.reset();  // destructor after stop: no double teardown
  EXPECT_EQ(client.receive_frame(), std::nullopt);
}

}  // namespace
}  // namespace dp::serve
