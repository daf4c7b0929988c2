#pragma once
// Shared vocabulary of the dp::serve subsystem: the per-request completion
// status (which also travels on the wire as the response frame's status
// field) and the Reply a client or future receives. Kept free of any
// batching or transport dependency so both layers can speak it.

#include <cstdint>
#include <vector>

namespace dp::serve {

/// Completion status of one served request. The numeric values are part of
/// the wire protocol (response frame `status` field, docs/serving.md) and
/// must never be reordered.
enum class Status : std::uint16_t {
  kOk = 0,          ///< served; the reply carries the readout bit patterns
  kQueueFull = 1,   ///< rejected at admission: the batcher queue was at capacity
  kShutdown = 2,    ///< rejected: the batcher/server is shutting down
  kBadRequest = 3,  ///< malformed request (e.g. wrong feature count)
  kNotFound = 4,    ///< v2 routing: no registry entry under the requested model name
  kOverloaded = 5,  ///< reserved wire value; no path in this server sets it any more
  kDeadlineExceeded = 6,  ///< shed: the v4 deadline budget expired while queued
  /// Client-side only: the caller's receive timeout elapsed before any
  /// response arrived. It has no wire presence — encode refuses it and
  /// decode rejects it — and is reserved here so a Reply can carry it.
  kTimeout = 7,
};

const char* to_string(Status s);

/// What a request resolves to: a status plus, when kOk, the readout
/// activations as network-format bit patterns (one per output class) —
/// exactly what runtime::Session::forward_bits returns for the same sample.
struct Reply {
  Status status = Status::kOk;
  std::vector<std::uint32_t> bits;

  bool ok() const { return status == Status::kOk; }
};

}  // namespace dp::serve
