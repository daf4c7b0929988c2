#pragma once
// The dp::serve wire protocol: length-prefixed, CRC-checked binary frames
// carrying sample payloads as raw network-format bit patterns (posit /
// minifloat / fixed — whatever the served Model was quantized to).
//
// Three frame versions are live (full byte tables in docs/serving.md):
//
//   v1 — the original single-model frame:
//
//     offset  size  field
//     0       4     magic "DPSV" (bytes 0x44 0x50 0x53 0x56)
//     4       1     version = 1 (kProtocolV1)
//     5       1     frame type (1 = request, 2 = response)
//     6       2     status  (requests send 0; responses carry serve::Status 0..6)
//     8       8     request id (client-chosen, echoed verbatim in the response)
//     16      4     payload length N in BYTES (= 4 * element count, <= kMaxPayloadBytes)
//     20      N     payload: N/4 u32 bit patterns
//     20+N    4     CRC-32 (IEEE 802.3 reflected, poly 0xEDB88320) over bytes [0, 20+N)
//
//   v2 — identical through offset 19, then a model-name routing block is
//   inserted between the fixed header and the payload:
//
//     offset  size  field
//     0..19         as v1, with version = 2 (kProtocolV2)
//     20      1     model name length M (0..kMaxModelNameBytes)
//     21      M     model name (raw bytes, no terminator)
//     21+M    N     payload
//     21+M+N  4     CRC-32 over bytes [0, 21+M+N)
//
// A v2 request is routed to the registry entry of that name (empty name =
// the default entry, exactly like a v1 frame); an unknown name gets a
// kNotFound response. Responses are always v1 frames — the echoed request id
// is the demux key and needs no name — so a v1-only client never sees a v2
// byte no matter what the server is doing.
//
//   v4 — v2 plus a CRC-covered deadline budget and payload-encoding byte
//   between the fixed header and the name block (v1 and v2 encodings are
//   pinned unchanged, byte for byte):
//
//     offset  size  field
//     0..19         as v1, with version = 4 (kProtocolV4)
//     20      8     deadline budget: microseconds REMAINING for this request
//                   (u64 little-endian; 0 = no deadline)
//     28      1     payload encoding (0 = raw patterns, 1 = entropy-coded
//                   block, kPayloadEncoding*; anything else is rejected)
//     29      1     model name length M
//     30      M     model name
//     30+M    N     payload
//     30+M+N  4     CRC-32 over bytes [0, 30+M+N)
//
// The budget is relative, not an absolute wall-clock instant, so it survives
// clock skew between peers: the server converts it to a steady-clock
// deadline the moment the frame is decoded, and a request whose budget
// expires while queued is shed with kDeadlineExceeded instead of burning a
// dispatcher slot (serve/batcher.hpp). A zero budget means "no deadline".
//
// Version byte 3 is unassigned: encode and decode reject it like any
// unknown version.
//
// Encoding 0 means the payload words are bit patterns exactly as in v1/v2.
// Encoding 1 means they are a codec/payload.hpp block: element count, coded
// byte length, then the range-coded bytes packed LE into u32 words — still
// N % 4 == 0, still inside kMaxPayloadBytes, so every existing frame bound
// and the CRC apply unchanged. Compression is negotiated PER FRAME: the
// server answers a compressed request with a compressed (v4) response and a
// raw request with a raw response, so a client opts in per request and a
// fleet can roll over gradually (docs/compression.md). Error responses are
// always plain v1 regardless of request encoding.
//
// A request payload is the input sample, one pattern per feature, already
// quantized into the target model's input format (Client::send does this
// with num::Encoder, the same rule runtime::Session applies to doubles, so
// served outputs are bit-identical to a direct Session call on the same
// doubles). The server hands the patterns to the model as they are, and a
// word w is served as the value it decodes to, to_double(w): bits above n
// are ignored, and a pattern the quantizer never emits (a float ±Inf or NaN
// payload) is re-encoded as the quantizer encodes that value
// (runtime::PatternView). A response payload is the readout activations.
// Error responses carry an empty payload.
//
// decode() never trusts the peer: magic, version, type, status, length
// bounds and CRC are all checked before any payload byte is interpreted, and
// a failure is a ProtocolError naming the first rule violated. A stream
// cannot resync after a framing error, so the server drops the connection on
// one.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/transport.hpp"
#include "serve/types.hpp"

namespace dp::serve {

inline constexpr std::uint8_t kProtocolV1 = 1;  ///< single-model frames
inline constexpr std::uint8_t kProtocolV2 = 2;  ///< + model-name routing block
inline constexpr std::uint8_t kProtocolV4 = 4;  ///< + deadline budget, payload encoding
/// Size of the v4 deadline-budget field (u64 microseconds remaining).
inline constexpr std::size_t kDeadlineBytes = 8;
/// Values of the v4 payload-encoding byte.
inline constexpr std::uint8_t kPayloadEncodingRaw = 0;
inline constexpr std::uint8_t kPayloadEncodingCodec = 1;
inline constexpr std::uint32_t kFrameMagic = 0x56535044u;  // "DPSV" little-endian
inline constexpr std::size_t kHeaderBytes = 20;
inline constexpr std::size_t kTrailerBytes = 4;  // the CRC
/// Admission bound on payload size, enforced before allocation so a
/// corrupted or hostile length field cannot balloon memory.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;
/// Bound on the v2 model-name block (fits the one-byte length field with
/// room to spare; registry names are short identifiers, not paths).
inline constexpr std::size_t kMaxModelNameBytes = 64;

/// Frame type byte 3 is unassigned: decode rejects it like any unknown type.
enum class FrameType : std::uint8_t { kRequest = 1, kResponse = 2 };

/// The bytes arrived but were not a valid frame (bad magic/version/type/
/// status, oversize or misaligned length, oversize name, CRC mismatch).
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// One decoded frame. `payload` holds bit patterns: request = input features
/// in the model's format, response = readout activations. `model` is the
/// v2/v4 routing name; it must be empty on a v1 frame (encode enforces
/// this), and decode leaves it empty for v1 input. `deadline_us` is the v4
/// deadline budget (microseconds remaining; 0 = none) and `payload_encoding`
/// the v4 encoding byte (kPayloadEncoding*) — encode rejects a nonzero value
/// of either on a v1/v2 frame, so the older encodings cannot drift.
struct Frame {
  std::uint8_t version = kProtocolV1;
  FrameType type = FrameType::kRequest;
  Status status = Status::kOk;
  std::uint64_t request_id = 0;
  std::string model;
  std::uint64_t deadline_us = 0;
  std::uint8_t payload_encoding = kPayloadEncodingRaw;
  std::vector<std::uint32_t> payload;

  bool operator==(const Frame&) const = default;
};

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) of `data`. Exposed for
/// tests and for anyone implementing the protocol in another language.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Serialize a frame (header [+ deadline budget] [+ encoding byte] [+ name
/// block] + payload + CRC trailer). Throws ProtocolError if the payload
/// exceeds kMaxPayloadBytes, the name exceeds kMaxModelNameBytes, a v1 frame
/// carries a name, a v1/v2 frame carries a deadline budget or a nonzero
/// payload encoding, the encoding byte is unknown, the version is unknown, or
/// the status has no wire value (above kDeadlineExceeded, e.g. kTimeout).
std::vector<std::uint8_t> encode(const Frame& frame);

/// Parse one complete frame from `bytes` (which must be exactly one frame).
/// Accepts v1, v2 and v4; throws ProtocolError on any violation.
Frame decode(std::span<const std::uint8_t> bytes);

/// Incremental framing for event-loop readers: inspect the front of `bytes`
/// (a connection's read buffer, possibly holding a partial frame or several
/// frames). Returns std::nullopt when more bytes are needed to complete the
/// first frame; otherwise decodes it and sets `consumed` to its size so the
/// caller can pop it and go again. Throws ProtocolError as decode does —
/// header fields are validated as soon as they are present, so garbage fails
/// fast instead of waiting for a length it promised.
std::optional<Frame> try_extract(std::span<const std::uint8_t> bytes, std::size_t& consumed);

/// Blocking framed write: encode + write_all.
void write_frame(FdStream& stream, const Frame& frame);

}  // namespace dp::serve
