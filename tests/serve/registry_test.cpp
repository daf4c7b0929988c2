// ModelRegistry contract tests: name routing (default entry, v1/empty-name
// rule), load validation, lease pinning, and the hot load/swap/unload drain
// guarantee — an in-flight request accepted by the old entry is answered
// from the old model, never dropped, even while the swap completes.

#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
#include "serve/protocol.hpp"
#include "serve/wait.hpp"

namespace dp::serve {
namespace {

using namespace std::chrono_literals;

nn::Mlp small_net(std::uint32_t seed = 42) { return nn::Mlp({6, 16, 8, 3}, seed); }

std::shared_ptr<const runtime::Model> posit_model(std::uint32_t seed = 42) {
  return runtime::Model::create(nn::quantize(small_net(seed), num::Format{num::PositFormat{8, 0}}));
}

std::shared_ptr<const runtime::Model> fixed_model(std::uint32_t seed = 42) {
  return runtime::Model::create(nn::quantize(small_net(seed), num::Format{num::FixedFormat{8, 7}}));
}

std::vector<double> random_row(std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> x(dim);
  for (double& v : x) v = u(rng);
  return x;
}

TEST(ServeRegistry, FirstLoadBecomesDefaultAndEmptyNameRoutesThere) {
  ModelRegistry registry;
  EXPECT_EQ(registry.default_name(), "");
  EXPECT_FALSE(registry.acquire(""));

  registry.load("posit8", posit_model());
  registry.load("fixed8", fixed_model());
  EXPECT_EQ(registry.default_name(), "posit8");
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"fixed8", "posit8"}));
  EXPECT_TRUE(registry.has("fixed8"));
  EXPECT_FALSE(registry.has("nope"));

  ModelRegistry::Lease by_default = registry.acquire("");
  ASSERT_TRUE(by_default);
  EXPECT_EQ(by_default->name, "posit8");
  ModelRegistry::Lease by_name = registry.acquire("fixed8");
  ASSERT_TRUE(by_name);
  EXPECT_EQ(by_name->name, "fixed8");
  EXPECT_FALSE(registry.acquire("nope"));

  // The default route keeps its signature: repointing it to a same-format
  // entry is fine, to a different format is the silent-corruption hazard
  // the guard rejects (v1 clients quantize with the captured format).
  registry.load("posit8b", posit_model(43));
  registry.set_default("posit8b");
  EXPECT_EQ(registry.acquire("")->name, "posit8b");
  EXPECT_THROW(registry.set_default("fixed8"), std::invalid_argument);
  EXPECT_EQ(registry.default_name(), "posit8b");
  EXPECT_THROW(registry.set_default("nope"), std::invalid_argument);

  EXPECT_EQ(registry.model(""), registry.model("posit8b"));
  EXPECT_EQ(registry.model("nope"), nullptr);
  EXPECT_TRUE(registry.stats("posit8").has_value());
  EXPECT_FALSE(registry.stats("nope").has_value());
}

TEST(ServeRegistry, LoadValidatesItsArguments) {
  ModelRegistry registry;
  EXPECT_THROW(registry.load("m", nullptr), std::invalid_argument);
  EXPECT_THROW(registry.load("", posit_model()), std::invalid_argument);
  EXPECT_THROW(registry.load(std::string(kMaxModelNameBytes + 1, 'x'), posit_model()),
               std::invalid_argument);
  // A failed load leaves the registry untouched.
  EXPECT_TRUE(registry.names().empty());
}

TEST(ServeRegistry, SubmitThroughALeaseMatchesADirectSession) {
  ModelRegistry registry;
  const auto model = posit_model();
  registry.load("m", model);
  const std::vector<double> x = random_row(model->input_dim(), 1);

  ModelRegistry::Lease lease = registry.acquire("m");
  ASSERT_TRUE(lease);
  std::future<Reply> fut = lease->batcher.submit(x);
  lease.release();

  const Reply reply = fut.get();
  ASSERT_EQ(reply.status, Status::kOk);
  runtime::Session direct(model);
  const auto want = direct.forward_bits(std::span<const double>(x));
  EXPECT_EQ(reply.bits, std::vector<std::uint32_t>(want.begin(), want.end()));
}

TEST(ServeRegistry, HotSwapDrainsTheParkedRequestOnTheOldModel) {
  ModelRegistry registry;
  const auto old_model = posit_model(42);
  const auto new_model = posit_model(43);  // same format, new weights: different bits
  registry.load("m", old_model);
  const std::vector<double> x = random_row(old_model->input_dim(), 2);

  // Park a request in the old entry behind its held dispatcher: only the
  // swap's drain may carve it.
  DynamicBatcher& old_batcher = registry.acquire("m")->batcher;
  std::future<void> swapped;  // declared before the hold: joined after it opens
  DispatcherHold hold(old_batcher, x);
  ASSERT_TRUE(hold.held());
  std::future<Reply> fut;
  {
    ModelRegistry::Lease lease = registry.acquire("m");
    fut = lease->batcher.submit(x);
  }
  // Swap. load() must first wait out leases, then drain the old batcher —
  // the parked request is flushed through the OLD model's Session, and the
  // swap cannot return before it is answered.
  swapped = std::async(std::launch::async, [&] { registry.load("m", new_model); });
  EXPECT_TRUE(release_into_drain(hold));
  swapped.get();
  ASSERT_EQ(fut.wait_for(0s), std::future_status::ready) << "load() returned before the drain";
  const Reply reply = fut.get();
  ASSERT_EQ(reply.status, Status::kOk);
  runtime::Session old_direct(old_model);
  const auto want_old = old_direct.forward_bits(std::span<const double>(x));
  EXPECT_EQ(reply.bits, std::vector<std::uint32_t>(want_old.begin(), want_old.end()));

  // Requests resolved after the swap land on the new model.
  ModelRegistry::Lease lease = registry.acquire("m");
  EXPECT_EQ(lease->model.get(), new_model.get());
  const Reply fresh = lease->batcher.submit(x).get();
  runtime::Session new_direct(new_model);
  const auto want_new = new_direct.forward_bits(std::span<const double>(x));
  EXPECT_EQ(fresh.bits, std::vector<std::uint32_t>(want_new.begin(), want_new.end()));

  const ModelRegistry::Counters c = registry.counters();
  EXPECT_EQ(c.loads, 1u);
  EXPECT_EQ(c.swaps, 1u);
}

TEST(ServeRegistry, HotSwapRejectsFormatOrShapeChanges) {
  // Clients quantize with the format they captured at connect time, so a
  // swap that changes a named entry's format (or dimensions) would make
  // them silently compute wrong answers. The registry refuses; a new
  // format is a new name (docs/deployment.md).
  ModelRegistry registry;
  registry.load("m", posit_model());
  EXPECT_THROW(registry.load("m", fixed_model()), std::invalid_argument);
  const auto wider = runtime::Model::create(
      nn::quantize(nn::Mlp({7, 8, 3}, 42), num::Format{num::PositFormat{8, 0}}));
  EXPECT_THROW(registry.load("m", wider), std::invalid_argument);
  // The rejected swaps left the entry untouched and serviceable.
  EXPECT_EQ(registry.counters().swaps, 0u);
  {
    ModelRegistry::Lease lease = registry.acquire("m");
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease->model->format().name(), posit_model()->format().name());
  }  // released: unload() below waits out live leases
  // And the same model under a NEW name is the sanctioned spelling.
  registry.load("m-fixed8", fixed_model());
  EXPECT_TRUE(registry.has("m-fixed8"));

  // unload()+load() cannot launder a format change through a retired name:
  // a client may still hold the format it captured while "m" served.
  EXPECT_TRUE(registry.unload("m"));
  EXPECT_THROW(registry.load("m", fixed_model()), std::invalid_argument);
  registry.load("m", posit_model(43));  // same signature, new weights: fine
  EXPECT_TRUE(registry.has("m"));
}

TEST(ServeRegistry, UnloadDrainsRemovesAndClearsTheDefault) {
  ModelRegistry registry;
  const auto model = posit_model();
  registry.load("m", model);
  const std::vector<double> x = random_row(model->input_dim(), 3);
  DynamicBatcher& batcher = registry.acquire("m")->batcher;
  std::future<bool> unloaded;  // declared before the hold: joined after it opens
  DispatcherHold hold(batcher, x);
  ASSERT_TRUE(hold.held());
  std::future<Reply> fut = registry.acquire("m")->batcher.submit(x);

  EXPECT_FALSE(registry.unload("nope"));
  unloaded = std::async(std::launch::async, [&] { return registry.unload("m"); });
  EXPECT_TRUE(release_into_drain(hold));
  EXPECT_TRUE(unloaded.get());
  ASSERT_EQ(fut.wait_for(0s), std::future_status::ready) << "unload() returned before the drain";
  EXPECT_EQ(fut.get().status, Status::kOk);  // drained, not dropped
  EXPECT_FALSE(registry.has("m"));
  EXPECT_EQ(registry.default_name(), "");
  EXPECT_FALSE(registry.acquire(""));

  // The next load becomes the new default.
  registry.load("n", model);
  EXPECT_EQ(registry.default_name(), "n");
  EXPECT_EQ(registry.counters().unloads, 1u);
}

TEST(ServeRegistry, ShutdownAllDrainsEverythingAndRefusesNewLoads) {
  ModelRegistry registry;
  const auto model = posit_model();
  registry.load("a", model);
  registry.load("b", model);
  const std::vector<double> x = random_row(model->input_dim(), 4);
  DynamicBatcher& a = registry.acquire("a")->batcher;
  DynamicBatcher& b = registry.acquire("b")->batcher;
  std::future<void> stopped;  // declared before the holds: joined after they open
  DispatcherHold hold_a(a, x);
  DispatcherHold hold_b(b, x);
  ASSERT_TRUE(hold_a.held());
  ASSERT_TRUE(hold_b.held());
  std::future<Reply> fa = registry.acquire("a")->batcher.submit(x);
  std::future<Reply> fb = registry.acquire("b")->batcher.submit(x);

  // shutdown_all() drains the entries one after another, so each hold opens
  // once its own entry's drain has begun, whichever entry goes first.
  stopped = std::async(std::launch::async, [&] { registry.shutdown_all(); });
  EXPECT_TRUE(release_into_drain({&hold_a, &hold_b}));
  stopped.get();
  EXPECT_EQ(fa.get().status, Status::kOk);
  EXPECT_EQ(fb.get().status, Status::kOk);
  EXPECT_FALSE(registry.acquire(""));
  EXPECT_THROW(registry.load("c", model), std::runtime_error);
  registry.shutdown_all();  // idempotent

  // Routing is dead, but the final state stays readable: an operator can
  // log end-of-life counters after an orderly stop. Mutations are refused
  // symmetrically so nothing can erase that final state.
  EXPECT_NE(registry.model(""), nullptr);
  ASSERT_TRUE(registry.stats("a").has_value());
  EXPECT_EQ(registry.stats("a")->completed, 2u);  // the held row + the drained one
  EXPECT_EQ(registry.stats("b")->completed, 2u);
  EXPECT_FALSE(registry.unload("a"));
  EXPECT_THROW(registry.set_default("b"), std::runtime_error);
  EXPECT_TRUE(registry.stats("a").has_value());
}

TEST(ServeRegistry, RepeatedHotSwapUnderConcurrentSubmittersDropsNothing) {
  // The lookup->submit race the lease pin closes: submitter threads hammer
  // acquire()+submit while the main thread hot-swaps the entry over and
  // over. Both models quantize the same trained net in the same format, so
  // every reply — whichever side of whichever swap it landed on — must be
  // kOk and bit-identical to the single reference. kQueueFull/kShutdown/
  // empty replies would mean a swap dropped or corrupted a request.
  const auto model_a = posit_model();
  const auto model_b = posit_model();  // identical weights, separate instance
  ModelRegistry registry;
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.queue_capacity = 1u << 16;  // admission never the limiting factor here
  registry.load("m", model_a, opts);

  const std::vector<double> x = random_row(model_a->input_dim(), 5);
  runtime::Session direct(model_a);
  const auto want_span = direct.forward_bits(std::span<const double>(x));
  const std::vector<std::uint32_t> want(want_span.begin(), want_span.end());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> wrong{0};
  const std::size_t submitters = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < submitters; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        ModelRegistry::Lease lease = registry.acquire("m");
        ASSERT_TRUE(lease);  // the name exists throughout
        std::future<Reply> fut = lease->batcher.submit(x);
        lease.release();
        const Reply reply = fut.get();
        if (reply.status != Status::kOk || reply.bits != want) {
          wrong.fetch_add(1);
        }
        served.fetch_add(1);
      }
    });
  }

  for (int swap = 0; swap < 25; ++swap) {
    registry.load("m", swap % 2 == 0 ? model_b : model_a, opts);
    std::this_thread::sleep_for(1ms);
  }
  // Let some traffic land after the last swap too.
  const std::uint64_t after_last_swap = served.load();
  const bool served_after_swaps =
      wait_until([&] { return served.load() >= after_last_swap + 50; });
  stop.store(true);
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(served_after_swaps) << "traffic stalled after the last swap";
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(registry.counters().swaps, 25u);
}

}  // namespace
}  // namespace dp::serve
