// The chaos harness: the full serving stack (TCP, poll loops, registry,
// batchers) exercised through seeded fault injection — bytes sliced into
// tiny reads/writes, latency spikes, connections reset mid-frame — plus the
// two client-facing guards against a slow or silent peer: Client receive
// timeouts and protocol-v4 deadline shedding.
//
// The injector is spliced on the dialing side of each connection. Its relay
// forwards bytes unchanged in both directions, so the server's poll loop
// sees the same sliced, delayed and reset stream the client does.
//
// The invariants every seed must uphold:
//   * no lost or duplicated response ids — every id a client still holds a
//     live connection for resolves exactly once;
//   * every kOk payload is bit-identical to a direct runtime::Session call
//     on the same sample (a fault can kill a conversation, never corrupt an
//     answer — the CRC turns corruption into a dropped connection);
//   * no stuck dispatcher — after the chaos, a clean client still round
//     trips, batcher accounting balances, and stop() drains promptly.
//
// Every RNG here is seeded (kSeeds); a failing seed replays exactly.

#include "serve/fault_injection.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"
#include "serve/server.hpp"
#include "serve/wait.hpp"

namespace dp::serve {
namespace {

using namespace std::chrono_literals;

/// The fixed seed matrix; CI runs the whole suite, so every test sweeps it.
constexpr std::array<std::uint64_t, 3> kSeeds = {11, 29, 2019};

nn::Mlp small_net(std::uint32_t seed = 42) { return nn::Mlp({6, 16, 8, 3}, seed); }

std::shared_ptr<const runtime::Model> small_model() {
  static const std::shared_ptr<const runtime::Model> model = runtime::Model::create(
      nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  return model;
}

std::vector<double> random_rows(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

std::vector<std::uint32_t> direct_bits(const std::shared_ptr<const runtime::Model>& model,
                                       std::span<const double> x) {
  runtime::Session session(model);
  const auto bits = session.forward_bits(x);
  return {bits.begin(), bits.end()};
}

ServerOptions chaos_server_options() {
  ServerOptions opts;
  opts.batcher.max_batch = 4;
  opts.batcher.max_wait = 200us;
  opts.batcher.dispatchers = 2;
  opts.tcp_port = 0;
  opts.shards = 2;
  return opts;
}

/// Row i of the canonical sample set.
std::span<const double> row(const std::vector<double>& xs, std::size_t dim, std::size_t i) {
  return std::span<const double>(xs.data() + i * dim, dim);
}

// ---------------------------------------------------------------------------
// Pure slicing/delay faults: nothing may be lost at all.
// ---------------------------------------------------------------------------

TEST(Chaos, SlicedAndDelayedClientTransportIsLossless) {
  // Slicing + jitter but no resets: every frame must arrive intact, every id
  // resolve exactly once, every payload bit-identical. This is the test that
  // fails if any framing path mishandles a short read or write.
  const auto model = small_model();
  const std::size_t dim = model->input_dim();
  const std::vector<double> xs = random_rows(8, dim, 17);
  Server server(model, chaos_server_options());
  ASSERT_NE(server.tcp_port(), 0);

  for (const std::uint64_t seed : kSeeds) {
    FaultProfile profile;
    profile.seed = seed;
    profile.max_slice = 3;  // pathological: frames arrive bytes at a time
    profile.delay_probability = 0.05;
    profile.max_delay = 500us;
    FaultInjector injector(profile);

    Client client(model, injector.connect(server.tcp_port()), "");
    std::map<std::uint64_t, std::size_t> sent;  // id -> row
    for (std::size_t i = 0; i < 8; ++i) sent[client.send(row(xs, dim, i))] = i;
    std::set<std::uint64_t> resolved;
    for (const auto& [id, i] : sent) {
      const Reply reply = client.receive(id);
      ASSERT_TRUE(resolved.insert(id).second) << "duplicated id " << id;
      ASSERT_EQ(reply.status, Status::kOk) << "seed " << seed << " row " << i;
      EXPECT_EQ(reply.bits, direct_bits(model, row(xs, dim, i)))
          << "seed " << seed << " row " << i;
    }
    EXPECT_EQ(resolved.size(), sent.size()) << "lost ids under seed " << seed;
  }
}

TEST(Chaos, ServerSideInjectionIsLossless) {
  // The same invariant aimed at the server's side of the relay: two
  // pipelining connections drive the poll loop's own short-read/short-write
  // handling, and the server must stop cleanly with the relays still alive.
  const auto model = small_model();
  const std::size_t dim = model->input_dim();
  const std::vector<double> xs = random_rows(8, dim, 23);

  for (const std::uint64_t seed : kSeeds) {
    FaultProfile profile;
    profile.seed = seed;
    profile.max_slice = 5;
    profile.delay_probability = 0.02;
    profile.max_delay = 300us;
    FaultInjector injector(profile);
    Server server(model, chaos_server_options());

    Client a(model, injector.connect(server.tcp_port()), "");
    Client b(model, injector.connect(server.tcp_port()), "");
    for (Client* client : {&a, &b}) {
      std::vector<std::uint64_t> ids;
      for (std::size_t i = 0; i < 8; ++i) ids.push_back(client->send(row(xs, dim, i)));
      for (std::size_t i = 8; i-- > 0;) {  // reverse order: exercises demux
        const Reply reply = client->receive(ids[i]);
        ASSERT_EQ(reply.status, Status::kOk) << "seed " << seed << " row " << i;
        EXPECT_EQ(reply.bits, direct_bits(model, row(xs, dim, i)))
            << "seed " << seed << " row " << i;
      }
    }
    // The server must shut down cleanly with relays still spliced in.
    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.batcher.accepted,
              stats.batcher.completed + stats.batcher.deadline_exceeded)
        << "batcher accounting must balance after stop(), seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Reset faults: conversations may die, answers may not lie.
// ---------------------------------------------------------------------------

TEST(Chaos, ResetsNeverCorruptOrDuplicateReplies) {
  const auto model = small_model();
  const std::size_t dim = model->input_dim();
  const std::vector<double> xs = random_rows(4, dim, 31);
  Server server(model, chaos_server_options());

  for (const std::uint64_t seed : kSeeds) {
    FaultProfile profile;
    profile.seed = seed;
    profile.max_slice = 16;
    profile.reset_probability = 0.02;  // a reset every ~50 slices
    FaultInjector injector(profile);

    std::size_t ok = 0, killed = 0;
    for (int call = 0; call < 40; ++call) {
      const std::size_t i = static_cast<std::size_t>(call) % 4;
      try {
        Client client(model, injector.connect(server.tcp_port()), "");
        const Reply reply = client.receive(client.send(row(xs, dim, i)));
        ASSERT_EQ(reply.status, Status::kOk);
        // The invariant: a reply that made it through chaos is EXACTLY the
        // direct Session answer. CRC turns corruption into disconnects.
        ASSERT_EQ(reply.bits, direct_bits(model, row(xs, dim, i)))
            << "seed " << seed << " call " << call;
        ++ok;
      } catch (const TransportError&) {
        ++killed;  // the conversation died; that is chaos working as intended
      }
    }
    EXPECT_GT(ok, 0u) << "seed " << seed << ": every call died — relay broken?";
    // The server survived all of it: a clean client still round trips.
    Client clean = connect_tcp(server.tcp_port(), model);
    EXPECT_EQ(clean.receive(clean.send(row(xs, dim, 0))).status, Status::kOk)
        << "seed " << seed << " (ok=" << ok << " killed=" << killed << ")";
  }
}

// ---------------------------------------------------------------------------
// Lifecycle under faults: hot swap and orderly stop.
// ---------------------------------------------------------------------------

TEST(Chaos, HotSwapUnderActiveFaultInjection) {
  // Requests hammer the default entry through fault-injected connections
  // while the registry hot-swaps it between two same-shape models. Every
  // kOk reply must match ONE of the two models exactly — never a blend,
  // never garbage — and the swap must not strand a request.
  const nn::Mlp net = small_net();
  const num::Format fmt{num::PositFormat{8, 0}};
  const auto model_a = runtime::Model::create(nn::quantize(net, fmt));
  const auto model_b = runtime::Model::create(nn::quantize(small_net(/*seed=*/1234), fmt));
  const std::size_t dim = model_a->input_dim();
  const std::vector<double> xs = random_rows(2, dim, 41);

  for (const std::uint64_t seed : kSeeds) {
    ModelRegistry registry(/*lanes=*/2);
    BatcherOptions fast;
    fast.max_batch = 4;
    fast.max_wait = 200us;
    registry.load("m", model_a, fast);
    Server server(registry, chaos_server_options());

    // Two relays in series: a slicing one next to the server, and a
    // slicing, resetting one next to the client.
    FaultProfile server_profile;
    server_profile.seed = seed ^ 0xABCDull;
    server_profile.max_slice = 7;
    FaultInjector near_server(server_profile);
    FaultProfile profile;
    profile.seed = seed;
    profile.max_slice = 9;
    profile.reset_probability = 0.005;
    FaultInjector injector(profile);

    const std::vector<std::uint32_t> want_a = direct_bits(model_a, row(xs, dim, 0));
    const std::vector<std::uint32_t> want_b = direct_bits(model_b, row(xs, dim, 0));
    ASSERT_NE(want_a, want_b) << "models must be distinguishable for this test";

    std::atomic<bool> done{false};
    std::atomic<std::size_t> ok{0};
    std::thread hammer([&] {
      while (!done.load()) {
        try {
          Client client(model_a, injector.wrap(near_server.connect(server.tcp_port())), "m");
          for (int k = 0; k < 4 && !done.load(); ++k) {
            const Reply reply = client.receive(client.send(row(xs, dim, 0)));
            if (reply.status != Status::kOk) continue;  // shutdown race at the end
            ASSERT_TRUE(reply.bits == want_a || reply.bits == want_b)
                << "seed " << seed << ": reply matches neither model";
            ++ok;
          }
        } catch (const TransportError&) {
          // a reset took the conversation; redial
        }
      }
    });
    for (int swap = 0; swap < 6; ++swap) {
      registry.load("m", swap % 2 == 0 ? model_b : model_a, fast);
      std::this_thread::sleep_for(5ms);
    }
    done.store(true);
    hammer.join();
    EXPECT_GT(ok.load(), 0u) << "seed " << seed << ": no request ever completed";
    server.stop();  // must drain cleanly with relays alive
  }
}

TEST(Chaos, StopDrainsPromptlyUnderActiveFaultInjection) {
  const auto model = small_model();
  const std::size_t dim = model->input_dim();
  const std::vector<double> xs = random_rows(2, dim, 43);

  for (const std::uint64_t seed : kSeeds) {
    FaultProfile profile;
    profile.seed = seed;
    profile.max_slice = 6;
    profile.delay_probability = 0.05;
    profile.max_delay = 400us;
    FaultInjector injector(profile);
    auto server = std::make_unique<Server>(model, chaos_server_options());

    // Traffic in flight while stop() lands.
    std::atomic<bool> done{false};
    std::thread hammer([&] {
      while (!done.load()) {
        try {
          Client client(model, injector.connect(server->tcp_port()), "");
          for (int k = 0; k < 8; ++k) {
            const Reply reply = client.receive(client.send(row(xs, dim, 0)));
            // During the drain the server answers kShutdown; both are fine.
            if (reply.status == Status::kOk) {
              ASSERT_EQ(reply.bits, direct_bits(model, row(xs, dim, 0))) << "seed " << seed;
            } else {
              ASSERT_EQ(reply.status, Status::kShutdown) << "seed " << seed;
            }
          }
        } catch (const TransportError&) {
          return;  // the listener went away: stop() finished first
        }
      }
    });
    const bool traffic = wait_until([&] { return server->stats().frames_in > 0; });
    const auto t0 = std::chrono::steady_clock::now();
    server->stop();
    const auto stop_took = std::chrono::steady_clock::now() - t0;
    done.store(true);
    hammer.join();
    ASSERT_TRUE(traffic) << "seed " << seed << ": no request reached the server";
    // "Promptly": well under the write-stall fallback, faults notwithstanding.
    EXPECT_LT(stop_took, 3s) << "seed " << seed;
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.batcher.accepted,
              stats.batcher.completed + stats.batcher.deadline_exceeded)
        << "seed " << seed << ": a stop drain lost or duplicated a request";
  }
}

// ---------------------------------------------------------------------------
// Resilience primitives: receive timeout, deadline shedding.
// ---------------------------------------------------------------------------

TEST(Resilience, ReceiveTimeoutReturnsInsteadOfHanging) {
  // A listener that accepts (kernel backlog) but never answers: without
  // recv_timeout this receive() would block forever.
  TcpTransport silent(0);
  ClientOptions copts;
  copts.recv_timeout = 50ms;
  Client client = connect_tcp(silent.port(), small_model(), "", copts);

  const std::vector<double> x = random_rows(1, small_model()->input_dim(), 47);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t id = client.send(x);
  const Reply reply = client.receive(id);
  EXPECT_EQ(reply.status, Status::kTimeout);
  EXPECT_TRUE(reply.bits.empty());
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, 45ms);
  EXPECT_LT(waited, 5s);
}

TEST(Resilience, DeadlineBudgetShedsQueuedRequestsEndToEnd) {
  // One shard, one dispatcher, batches of one. Batcher callbacks run on the
  // dispatcher thread, so a first row whose callback blocks on a gate holds
  // the only dispatcher: the burst queues behind it, every budget runs out
  // on the steady clock, and only then is the gate opened. Every queued
  // request must then be shed — an exact count, not a timing race.
  const auto model = small_model();
  const std::size_t dim = model->input_dim();
  const std::vector<double> xs = random_rows(1, dim, 61);
  ServerOptions opts;
  opts.batcher.max_batch = 1;
  opts.batcher.dispatchers = 1;
  opts.shards = 1;

  std::latch gate(1);
  Server server(model, opts);
  struct GateGuard {
    std::latch& gate;
    bool open = false;
    void release() {
      if (!open) gate.count_down();
      open = true;
    }
    ~GateGuard() { release(); }  // never leave the dispatcher parked
  } guard{gate};

  std::atomic<bool> held{false};
  Status held_status = Status::kShutdown;
  std::vector<std::uint32_t> held_bits;
  {
    ModelRegistry::Lease lease = server.registry().acquire("");
    ASSERT_TRUE(lease);
    lease->lane(0).submit(row(xs, dim, 0), [&](Status status, std::span<const std::uint32_t> bits) {
      held_status = status;
      held_bits.assign(bits.begin(), bits.end());
      held.store(true);
      gate.wait();
    });
  }
  ASSERT_TRUE(wait_until([&] { return held.load(); })) << "the held row never reached a dispatcher";

  Client client = server.connect();
  constexpr std::size_t kBurst = 32;
  // The budget only has to outlast the few microseconds between a frame's
  // decode and its submit, so no request is dead on arrival.
  constexpr auto kBudget = 50ms;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kBurst; ++i) {
    ids.push_back(client.send(row(xs, dim, 0), /*deadline_budget_us=*/
                              std::chrono::microseconds(kBudget).count()));
  }
  const ServerStats queued =
      wait_for_stats(server, [&](const ServerStats& s) { return s.batcher.queue_depth == kBurst; });
  ASSERT_EQ(queued.batcher.queue_depth, kBurst);
  // Every budget was anchored when its frame was decoded, before the queue
  // reached kBurst; once kBudget more has passed on the same clock, every
  // queued deadline has expired.
  std::this_thread::sleep_until(std::chrono::steady_clock::now() + kBudget);
  guard.release();

  for (const std::uint64_t id : ids) {
    const Reply reply = client.receive(id);
    EXPECT_EQ(reply.status, Status::kDeadlineExceeded) << "id " << id;
    EXPECT_TRUE(reply.bits.empty());
  }
  EXPECT_EQ(held_status, Status::kOk);
  EXPECT_EQ(held_bits, direct_bits(model, row(xs, dim, 0)));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batcher.deadline_exceeded, kBurst);
  EXPECT_EQ(stats.batcher.accepted, stats.batcher.completed + stats.batcher.deadline_exceeded);
  const std::string page = server.metrics_text();
  EXPECT_NE(page.find("dp_model_deadline_exceeded{model=\"default\"} " + std::to_string(kBurst)),
            std::string::npos);

  // A zero budget means "no deadline": same request, v1 framing, never shed.
  const Reply relaxed = client.receive(client.send(row(xs, dim, 0), 0));
  EXPECT_EQ(relaxed.status, Status::kOk);
}

}  // namespace
}  // namespace dp::serve
