#include "serve/resilient_client.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

namespace dp::serve {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ResilientClient::ResilientClient(std::uint16_t port,
                                 std::shared_ptr<const runtime::Model> model,
                                 std::string model_name, ResilientClientOptions opts)
    : ResilientClient([port] { return tcp_connect(port); }, std::move(model),
                      std::move(model_name), std::move(opts)) {}

ResilientClient::ResilientClient(Dialer dialer, std::shared_ptr<const runtime::Model> model,
                                 std::string model_name, ResilientClientOptions opts)
    : dialer_(std::move(dialer)),
      model_(std::move(model)),
      model_name_(std::move(model_name)),
      opts_(std::move(opts)),
      jitter_rng_(opts_.retry.seed) {
  if (!dialer_) throw std::invalid_argument("serve::ResilientClient: null dialer");
  if (!model_) throw std::invalid_argument("serve::ResilientClient: null model");
  if (opts_.retry.max_attempts == 0) {
    throw std::invalid_argument("serve::ResilientClient: max_attempts must be >= 1");
  }
}

Client& ResilientClient::ensure_connected() {
  if (!client_) {
    // Even a failed dial is a reconnect attempt — the counter answers "how
    // often did this client have to redial", not "how often did it succeed".
    if (ever_dialed_) ++stats_.reconnects;
    ever_dialed_ = true;
    Client client(model_, dialer_(), model_name_);
    ClientOptions copts;
    copts.recv_timeout = opts_.recv_timeout;
    copts.compress = opts_.compress_payloads;
    client.set_options(copts);
    client_.emplace(std::move(client));
  }
  return *client_;
}

void ResilientClient::backoff_sleep(std::size_t retry_index) {
  const RetryPolicy& p = opts_.retry;
  double ms = static_cast<double>(p.initial_backoff.count()) *
              std::pow(p.backoff_multiplier, static_cast<double>(retry_index - 1));
  ms = std::min(ms, static_cast<double>(p.max_backoff.count()));
  if (p.jitter > 0) {
    std::uniform_real_distribution<double> u(std::max(0.0, 1.0 - p.jitter), 1.0);
    ms *= u(jitter_rng_);
  }
  if (ms > 0) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

Reply ResilientClient::forward_bits(std::span<const double> x) {
  ++stats_.calls;
  const Clock::time_point start = Clock::now();
  // The last definitive server verdict among retryable ones (kOverloaded):
  // returned if every retry keeps earning it, so the caller sees the
  // server's answer rather than a made-up one.
  std::optional<Reply> verdict;
  for (std::size_t attempt = 0; attempt < opts_.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      backoff_sleep(attempt);
    }
    std::uint64_t budget = 0;
    if (opts_.deadline_budget_us > 0) {
      // Re-derive the budget per attempt: the retry advertises how much of
      // the CALL's budget is left, not the original figure.
      const auto spent =
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start);
      if (static_cast<std::uint64_t>(spent.count()) >= opts_.deadline_budget_us) {
        return Reply{Status::kDeadlineExceeded, {}};
      }
      budget = opts_.deadline_budget_us - static_cast<std::uint64_t>(spent.count());
    }
    try {
      Client& client = ensure_connected();
      const std::uint64_t id = client.send(x, budget);
      Reply reply = client.receive(id);
      if (reply.status == Status::kTimeout) {
        // NOT retried: the request may still be executing and re-issuing it
        // is a budget decision only the caller can make. Reconnect so the
        // orphaned response cannot be demuxed into a later call's reply.
        ++stats_.timeouts;
        client_.reset();
        return reply;
      }
      if (reply.status == Status::kOverloaded) {
        verdict = std::move(reply);
        continue;  // the server asked for backoff + retry — give it both
      }
      return reply;  // definitive: kOk or a non-retryable rejection
    } catch (const TransportError&) {
      // Dial failure or the connection died during the call. Safe to retry:
      // dp inference is a pure function of the request, so a duplicate of a
      // possibly-executed request returns the same bits and changes nothing.
      client_.reset();
      continue;
    }
  }
  ++stats_.failures;
  if (verdict) return *verdict;
  throw TransportError("serve::ResilientClient: retries exhausted without a server verdict");
}

int ResilientClient::predict(std::span<const double> x) {
  const Reply reply = forward_bits(x);
  if (!reply.ok() || reply.bits.empty()) return -1;
  return model_->argmax_bits(reply.bits);
}

}  // namespace dp::serve
