#pragma once
// serve::ResilientClient — the retrying, reconnecting wrapper around the
// plain serve::Client for callers that want a call to survive transient
// faults (a refused connect, a connection reset mid-conversation, a
// momentarily overloaded server) instead of surfacing every hiccup.
//
// Retry policy — only outcomes that are SAFE to retry are retried:
//
//   outcome                          action
//   -------------------------------  --------------------------------------
//   connect refused / dropped        reconnect + retry (nothing was sent)
//   connection died during the call  reconnect + retry (dp inference is a
//                                    pure function of the request, so a
//                                    possibly-executed duplicate is
//                                    harmless: same bits, no side effects)
//   kOverloaded                      retry after backoff (the server asked
//                                    for exactly that)
//   kTimeout (receive timeout)       reconnect, do NOT retry — returned to
//                                    the caller. The request may still be
//                                    executing; whether to re-issue it is a
//                                    budget decision only the caller can
//                                    make. The reconnect exists so a late
//                                    response cannot be demuxed into some
//                                    later call's reply.
//   kQueueFull, kShutdown,           returned as-is: the server gave a
//   kBadRequest, kNotFound,          definitive answer; retrying cannot
//   kDeadlineExceeded, kOk           change it (full docs/serving.md table)
//
// Backoff between attempts is exponential with a cap and deterministic
// jitter (seeded, never wall-clock derived), so a retry storm decorrelates
// across clients while a test replays exactly.
//
// Deadlines: with ResilientClientOptions::deadline_budget_us set, every
// request goes out as a protocol-v4 frame carrying the microseconds left of
// that budget — recomputed per attempt from the moment the call started, so
// a retried request tells the server how much budget the RETRY has left, not
// the original figure.
//
// Threading contract: like Client, one ResilientClient is single-caller
// state. Open one per concurrent caller thread.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <span>
#include <string>

#include "runtime/model.hpp"
#include "serve/server.hpp"
#include "serve/types.hpp"

namespace dp::serve {

/// Capped exponential backoff with deterministic jitter. Attempt k (first
/// retry = 1) sleeps `min(initial * multiplier^(k-1), max)` scaled by a
/// random factor in [1 - jitter, 1].
struct RetryPolicy {
  /// Total tries per call, the first included. 1 = no retries.
  std::size_t max_attempts = 4;
  std::chrono::milliseconds initial_backoff{10};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds max_backoff{500};
  /// Fraction of each backoff randomized away (0 = fully deterministic
  /// sleeps, 1 = anywhere in (0, backoff]).
  double jitter = 0.5;
  /// Seed of the jitter RNG; same seed = same sleep schedule.
  std::uint64_t seed = 1;
};

struct ResilientClientOptions {
  RetryPolicy retry;
  /// Per-attempt receive timeout (Client recv_timeout semantics). A call
  /// whose attempt times out returns Reply{kTimeout} after a reconnect —
  /// never an automatic re-send (see the retryability table above).
  std::optional<std::chrono::milliseconds> recv_timeout;
  /// End-to-end deadline budget propagated as the v4 frame field,
  /// microseconds (0 = none). Counted from each call's start across all its
  /// attempts; when it runs out before an attempt begins, the call returns
  /// kDeadlineExceeded without touching the wire.
  std::uint64_t deadline_budget_us = 0;
  /// Entropy-code payloads (ClientOptions::compress: protocol-v4 frames,
  /// server mirrors the encoding on kOk responses). The server must already
  /// speak v4 — upgrade servers before flipping this on (docs/operations.md).
  bool compress_payloads = false;
};

struct ResilientClientStats {
  std::uint64_t calls = 0;       ///< forward_bits() invocations
  std::uint64_t retries = 0;     ///< extra attempts after a retryable outcome
  std::uint64_t reconnects = 0;  ///< dials after the first (incl. failed ones)
  std::uint64_t timeouts = 0;    ///< attempts that hit the receive timeout
  std::uint64_t failures = 0;    ///< calls that exhausted every attempt
};

class ResilientClient {
 public:
  /// How to open a connection; lets tests dial through a fault-injecting relay.
  using Dialer = std::function<FdStream()>;

  /// Dial a Server's TCP listener on this host (tcp_connect semantics).
  ResilientClient(std::uint16_t port, std::shared_ptr<const runtime::Model> model,
                  std::string model_name = "", ResilientClientOptions opts = {});

  /// Dial through `dialer` (e.g. [&] { return injector.connect(port); }).
  ResilientClient(Dialer dialer, std::shared_ptr<const runtime::Model> model,
                  std::string model_name = "", ResilientClientOptions opts = {});

  ResilientClient(ResilientClient&&) = default;
  ResilientClient& operator=(ResilientClient&&) = default;
  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// The request-encode format (the model's input format; replies come back
  /// in model->output_format(), which differs for mixed-precision models).
  const num::Format& format() const { return model_->input_format(); }
  const std::string& model_name() const { return model_name_; }
  const ResilientClientOptions& options() const { return opts_; }

  /// The retrying round trip: readout bit patterns for one sample. Returns
  /// the first definitive Reply (see the retryability table); throws
  /// TransportError only once every attempt failed at the transport layer
  /// without ever seeing a server verdict.
  Reply forward_bits(std::span<const double> x);

  /// forward_bits decoded to an argmax class (-1 on a non-Ok status), same
  /// recurrence as Client::predict.
  int predict(std::span<const double> x);

  /// Drop the current connection (the next call redials). Idempotent.
  void disconnect() { client_.reset(); }

  /// Whether a connection is currently open.
  bool connected() const { return client_.has_value(); }

  ResilientClientStats stats() const { return stats_; }

 private:
  /// Dial if not connected. Throws TransportError if the dial fails.
  Client& ensure_connected();
  /// Sleep the backoff for retry number `retry_index` (1-based).
  void backoff_sleep(std::size_t retry_index);

  Dialer dialer_;
  std::shared_ptr<const runtime::Model> model_;
  std::string model_name_;
  ResilientClientOptions opts_;
  std::optional<Client> client_;
  bool ever_dialed_ = false;  // a redial (even a failed one) is a reconnect
  std::mt19937_64 jitter_rng_;
  ResilientClientStats stats_;
};

}  // namespace dp::serve
