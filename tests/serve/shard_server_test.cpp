// The sharded serve loop, end to end: N event-loop shards (round-robin
// accept fan-out in process, SO_REUSEPORT over TCP) feeding per-shard
// admission lanes of one shared registry must stay bit-identical to a
// direct runtime::Session across the paper format grid, survive hot swaps
// under cross-shard in-flight traffic, drain every shard on stop(), and
// expose a metrics page whose field set is pinned here, also through the
// side TCP listener.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
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

ServerOptions sharded_options(std::size_t shards) {
  ServerOptions opts;
  opts.batcher.max_batch = 4;
  opts.shards = shards;
  return opts;
}

/// Parse a metrics page into {name+labels -> value}. Fails the test on any
/// line that is not `# ...` or `name[{labels}] value` with a numeric value.
std::map<std::string, double> parse_metrics(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << "unparseable metrics line: " << line;
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + sp + 1, &end);
    EXPECT_EQ(*end, '\0') << "non-numeric metrics value: " << line;
    out[key] = value;
  }
  return out;
}

// --- tentpole: sharded bit-identity across the paper grid -------------------

TEST(ShardServer, ShardedLocalServingBitIdenticalToDirectSessionAcrossPaperGrid) {
  const nn::Mlp net = small_net();
  const std::size_t kShards = 3;
  const std::size_t rows = 6;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const auto model = runtime::Model::create(nn::quantize(net, fmt));
      runtime::Session direct(model);
      const std::vector<double> xs = random_rows(rows, model->input_dim(), 7);

      Server server(model, sharded_options(kShards));
      ASSERT_EQ(server.shards(), kShards);
      // More clients than shards: round-robin lands at least one connection
      // on every shard.
      std::vector<Client> clients;
      for (std::size_t c = 0; c < 2 * kShards; ++c) clients.push_back(server.connect());

      for (std::size_t i = 0; i < rows; ++i) {
        const std::span<const double> x(xs.data() + i * model->input_dim(),
                                        model->input_dim());
        const auto want_span = direct.forward_bits(x);
        const std::vector<std::uint32_t> want(want_span.begin(), want_span.end());
        for (Client& client : clients) {
          const Reply reply = client.forward_bits(x);
          ASSERT_EQ(reply.status, Status::kOk) << fmt.name() << " row " << i;
          ASSERT_EQ(reply.bits, want) << fmt.name() << " row " << i;
        }
      }
      server.stop();

      // Every shard saw traffic (the fan-out actually fanned out), and the
      // shard totals agree with the aggregate view.
      const std::vector<ShardStats> per_shard = server.shard_stats();
      ASSERT_EQ(per_shard.size(), kShards);
      std::uint64_t conns = 0, in = 0;
      for (const ShardStats& s : per_shard) {
        EXPECT_GT(s.connections, 0u) << fmt.name();
        conns += s.connections;
        in += s.frames_in;
      }
      EXPECT_EQ(conns, clients.size()) << fmt.name();
      EXPECT_EQ(in, rows * clients.size()) << fmt.name();
      EXPECT_EQ(server.stats().frames_in, in) << fmt.name();
    }
  }
}

TEST(ShardServer, ShardedTcpReuseportServesEveryClientBitIdentically) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  runtime::Session direct(model);
  ServerOptions opts = sharded_options(4);
  opts.tcp_port = 0;
  Server server(model, opts);
  ASSERT_NE(server.tcp_port(), 0);

  const std::size_t kClients = 12, kPerClient = 8;
  const std::vector<double> xs = random_rows(kPerClient, model->input_dim(), 11);
  std::vector<std::vector<std::uint32_t>> want(kPerClient);
  for (std::size_t i = 0; i < kPerClient; ++i) {
    const auto bits = direct.forward_bits(
        std::span<const double>(xs.data() + i * model->input_dim(), model->input_dim()));
    want[i].assign(bits.begin(), bits.end());
  }

  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Client client = connect_tcp(server.tcp_port(), model);
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const Reply reply = client.forward_bits(std::span<const double>(
            xs.data() + i * model->input_dim(), model->input_dim()));
        if (reply.status != Status::kOk || reply.bits != want[i]) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);

  // Quiesce before asserting: frames_out is folded into the shard counters
  // AFTER the final send(2) completes, so a client can hold its last reply
  // a beat before the loop thread books it; stop() joins the loops and
  // makes every bump visible. The kernel's REUSEPORT hash decides the
  // distribution (it need not be even), so assert totals, not placement.
  server.stop();
  const ServerStats total = server.stats();
  EXPECT_EQ(total.connections, kClients);
  EXPECT_EQ(total.frames_in, kClients * kPerClient);
  EXPECT_EQ(total.frames_out, kClients * kPerClient);
  EXPECT_EQ(total.bad_frames, 0u);
  EXPECT_EQ(total.dropped, 0u);
}

// --- hot swap with traffic spread across every shard ------------------------

TEST(ShardServer, HotSwapUnderCrossShardInFlightTrafficDropsNothing) {
  const auto model_a =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  const auto model_b =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  const std::size_t kShards = 3;
  // External registry with one admission lane per shard: the swap must
  // drain EVERY lane, or some shard's in-flight requests get dropped.
  ModelRegistry registry(kShards);
  BatcherOptions bopts;
  bopts.max_batch = 8;
  bopts.queue_capacity = 1u << 14;
  registry.load("m", model_a, bopts);

  ServerOptions sopts;
  sopts.shards = kShards;
  Server server(registry, sopts);

  const std::vector<double> xs = random_rows(1, model_a->input_dim(), 17);
  runtime::Session direct(model_a);
  const auto want_span = direct.forward_bits(std::span<const double>(xs));
  const std::vector<std::uint32_t> want(want_span.begin(), want_span.end());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0}, wrong{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 2 * kShards; ++t) {  // round-robin covers all shards
    clients.emplace_back([&] {
      Client client = server.connect("m");
      while (!stop.load()) {
        const Reply reply = client.forward_bits(std::span<const double>(xs));
        if (reply.status != Status::kOk || reply.bits != want) wrong.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }

  for (int swap = 0; swap < 20; ++swap) {
    registry.load("m", swap % 2 == 0 ? model_b : model_a, bopts);
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
}

// --- stop() drains all shards ------------------------------------------------

TEST(ShardServer, StopDrainsEveryShardNoRequestUnanswered) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  constexpr std::size_t kShards = 4;
  Server server(model, sharded_options(kShards));

  const std::vector<double> xs = random_rows(1, model->input_dim(), 3);
  // Hold every shard lane's only dispatcher, so every accepted request is
  // still queued when stop() begins and only the drain can answer it.
  std::future<void> stopped;  // declared before the holds: joined after they open
  std::vector<std::unique_ptr<DispatcherHold>> holds;
  for (std::size_t i = 0; i < kShards; ++i) {
    holds.push_back(std::make_unique<DispatcherHold>(server.registry().acquire("")->lane(i), xs));
    ASSERT_TRUE(holds[i]->held()) << "lane " << i;
  }
  std::vector<Client> clients;
  std::vector<std::vector<std::uint64_t>> ids(8);
  for (std::size_t c = 0; c < ids.size(); ++c) {
    clients.push_back(server.connect());
    for (int i = 0; i < 4; ++i) {
      ids[c].push_back(clients[c].send(std::span<const double>(xs)));
    }
  }
  const std::size_t sent = ids.size() * 4;
  ASSERT_EQ(wait_for_stats(server, [&](const ServerStats& s) {
              return s.batcher.queue_depth == sent;
            }).batcher.queue_depth,
            sent);

  // The lanes drain one after another, so each hold opens once its own
  // lane's shutdown has begun, whichever lane goes first.
  stopped = std::async(std::launch::async, [&] { server.stop(); });
  std::vector<DispatcherHold*> open_in_drain;
  for (const auto& hold : holds) open_in_drain.push_back(hold.get());
  EXPECT_TRUE(release_into_drain(std::move(open_in_drain)));
  stopped.get();

  // Every pipelined request on every shard was accepted before the drain,
  // so each gets a served answer — and the stream then ends cleanly.
  // Nothing may simply vanish.
  runtime::Session direct(model);
  const auto want = direct.forward_bits(std::span<const double>(xs));
  for (std::size_t c = 0; c < ids.size(); ++c) {
    for (const std::uint64_t id : ids[c]) {
      const Reply reply = clients[c].receive(id);
      EXPECT_EQ(reply.status, Status::kOk)
          << "client " << c << " id " << id << ": " << to_string(reply.status);
      EXPECT_EQ(reply.bits, std::vector<std::uint32_t>(want.begin(), want.end()));
    }
    EXPECT_FALSE(clients[c].receive_frame().has_value()) << "client " << c;
  }
}

// --- metrics -----------------------------------------------------------------

TEST(ShardServer, MetricsPageFieldSetIsPinned) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  Server server(model, sharded_options(2));
  const std::vector<double> xs = random_rows(1, model->input_dim(), 13);
  Client a = server.connect();
  Client b = server.connect();  // round-robin: lands on the other shard
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(a.forward_bits(std::span<const double>(xs)).status, Status::kOk);
    ASSERT_EQ(b.forward_bits(std::span<const double>(xs)).status, Status::kOk);
  }

  const std::string text = server.metrics_text();
  ASSERT_EQ(text.rfind("# dp_serve metrics v1\n", 0), 0u)
      << "metrics page must open with its version header";
  const std::map<std::string, double> m = parse_metrics(text);

  // The scrape contract: these exact keys must exist. Additions are fine;
  // renames/removals break scrapers and this test.
  for (const char* k : {"dp_uptime_seconds", "dp_hardware_concurrency", "dp_shards",
                        "dp_requests_total", "dp_requests_per_second"}) {
    EXPECT_TRUE(m.count(k)) << "missing global metric " << k;
  }
  for (const char* base :
       {"dp_shard_connections", "dp_shard_frames_in", "dp_shard_frames_out",
        "dp_shard_bad_frames", "dp_shard_bad_requests", "dp_shard_not_found",
        "dp_shard_dropped", "dp_shard_overloaded", "dp_shard_metrics_scrapes"}) {
    for (const char* shard : {"0", "1"}) {
      const std::string key = std::string(base) + "{shard=\"" + shard + "\"}";
      EXPECT_TRUE(m.count(key)) << "missing per-shard metric " << key;
    }
  }
  for (const char* base :
       {"dp_model_accepted", "dp_model_rejected", "dp_model_completed",
        "dp_model_deadline_exceeded", "dp_model_batches", "dp_model_queue_depth",
        "dp_model_in_flight", "dp_model_occupancy", "dp_model_wait_p50_us",
        "dp_model_wait_p99_us", "dp_model_wait_p999_us"}) {
    const std::string key = std::string(base) + "{model=\"default\"}";
    EXPECT_TRUE(m.count(key)) << "missing per-model metric " << key;
  }

  EXPECT_EQ(m.at("dp_shards"), 2.0);
  EXPECT_EQ(m.at("dp_requests_total"), 6.0);
  EXPECT_EQ(m.at("dp_shard_frames_in{shard=\"0\"}") + m.at("dp_shard_frames_in{shard=\"1\"}"),
            6.0);
  EXPECT_EQ(m.at("dp_model_completed{model=\"default\"}"), 6.0);
  EXPECT_GT(m.at("dp_uptime_seconds"), 0.0);
}

TEST(ShardServer, SideMetricsListenerServesPlaintextAndCloses) {
  const auto model =
      runtime::Model::create(nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  ServerOptions opts = sharded_options(2);
  opts.metrics_port = 0;
  Server server(model, opts);
  ASSERT_NE(server.metrics_port(), 0);
  const std::vector<double> xs = random_rows(1, model->input_dim(), 23);
  Client client = server.connect();
  ASSERT_EQ(client.forward_bits(std::span<const double>(xs)).status, Status::kOk);

  // A scrape is: connect, read to EOF. No framing, no request bytes.
  FdStream scrape = tcp_connect(server.metrics_port());
  std::string text;
  char buf[1024];
  for (ssize_t n; (n = scrape.read_some(buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }

  ASSERT_EQ(text.rfind("# dp_serve metrics v1\n", 0), 0u);
  const std::map<std::string, double> m = parse_metrics(text);
  EXPECT_EQ(m.at("dp_requests_total"), 1.0);
  EXPECT_GE(server.stats().metrics_scrapes, 1u);
  EXPECT_EQ(server.stats().frames_out, 1u);   // a scrape is not a frame
  EXPECT_EQ(server.stats().connections, 1u);  // nor a request connection
}

}  // namespace
}  // namespace dp::serve
