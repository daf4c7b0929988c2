#include "serve/protocol.hpp"

#include "core/crc32.hpp"

namespace dp::serve {

namespace {

// --- little-endian scalar packing (explicit, so the wire format does not
// depend on host byte order or struct layout) ------------------------------

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t get_u16(std::span<const std::uint8_t> b, std::size_t at) {
  return static_cast<std::uint16_t>(b[at] | (b[at + 1] << 8));
}

std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[at + static_cast<std::size_t>(i)];
  return v;
}

std::uint64_t get_u64(std::span<const std::uint8_t> b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[at + static_cast<std::size_t>(i)];
  return v;
}

/// The highest Status value that travels on the wire; kTimeout (7) is the
/// client's own verdict and never does.
constexpr auto kMaxWireStatus = static_cast<std::uint16_t>(Status::kDeadlineExceeded);

/// The validated fixed-header fields every reader needs before it can size
/// the rest of the frame. Shared by decode and try_extract so both paths
/// enforce exactly the same rules.
struct Header {
  std::uint8_t version = 0;
  FrameType type = FrameType::kRequest;
  Status status = Status::kOk;
  std::uint64_t request_id = 0;
  std::uint32_t payload_bytes = 0;
};

Header parse_header(std::span<const std::uint8_t> b) {
  if (get_u32(b, 0) != kFrameMagic) throw ProtocolError("serve protocol: bad magic");
  Header h;
  h.version = b[4];
  if (h.version != kProtocolV1 && h.version != kProtocolV2 && h.version != kProtocolV4) {
    throw ProtocolError("serve protocol: unsupported version " + std::to_string(h.version));
  }
  const std::uint8_t type = b[5];
  if (type != static_cast<std::uint8_t>(FrameType::kRequest) &&
      type != static_cast<std::uint8_t>(FrameType::kResponse)) {
    throw ProtocolError("serve protocol: unknown frame type " + std::to_string(type));
  }
  h.type = static_cast<FrameType>(type);
  const std::uint16_t status = get_u16(b, 6);
  if (status > kMaxWireStatus) {
    throw ProtocolError("serve protocol: unknown status " + std::to_string(status));
  }
  h.status = static_cast<Status>(status);
  h.request_id = get_u64(b, 8);
  h.payload_bytes = get_u32(b, 16);
  if (h.payload_bytes > kMaxPayloadBytes) {
    throw ProtocolError("serve protocol: payload length exceeds bound");
  }
  if (h.payload_bytes % 4 != 0) {
    throw ProtocolError("serve protocol: payload length not a multiple of 4");
  }
  return h;
}

/// Bytes between the fixed header and the name-length byte: v4 inserts the
/// deadline budget plus the payload-encoding byte there; v1/v2 have nothing
/// (v1 has no name block at all).
std::size_t pre_name_bytes(std::uint8_t version) {
  return version == kProtocolV4 ? kDeadlineBytes + 1 : 0;
}

/// Offset of the name block (v2/v4: just past the name-length byte).
std::size_t name_offset(std::uint8_t version) {
  return kHeaderBytes + pre_name_bytes(version) + 1;
}

/// Offset of the payload in the frame at the front of `bytes`, or 0 when
/// `bytes` ends before the name-length byte. Shared by decode and
/// try_extract, so both size a frame by the same rules.
std::size_t payload_offset(const Header& h, std::span<const std::uint8_t> bytes) {
  if (h.version == kProtocolV1) return kHeaderBytes;
  const std::size_t at = name_offset(h.version);
  if (bytes.size() < at) return 0;
  const std::uint8_t name_len = bytes[at - 1];
  if (name_len > kMaxModelNameBytes) {
    throw ProtocolError("serve protocol: model name length exceeds bound");
  }
  return at + name_len;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kQueueFull: return "queue-full";
    case Status::kShutdown: return "shutdown";
    case Status::kBadRequest: return "bad-request";
    case Status::kNotFound: return "not-found";
    case Status::kOverloaded: return "overloaded";
    case Status::kDeadlineExceeded: return "deadline-exceeded";
    case Status::kTimeout: return "timeout";
  }
  return "unknown";
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  // One CRC-32 for the whole codebase: this is the same polynomial and
  // reflection the .dpnetz container uses (core/crc32.hpp). The serve::
  // spelling stays for wire-protocol implementers and existing tests.
  return core::crc32(data);
}

std::vector<std::uint8_t> encode(const Frame& frame) {
  if (frame.version != kProtocolV1 && frame.version != kProtocolV2 &&
      frame.version != kProtocolV4) {
    throw ProtocolError("serve protocol: cannot encode unknown version " +
                        std::to_string(frame.version));
  }
  if (frame.version == kProtocolV1 && !frame.model.empty()) {
    throw ProtocolError("serve protocol: a v1 frame cannot carry a model name");
  }
  if (frame.version != kProtocolV4 &&
      (frame.deadline_us != 0 || frame.payload_encoding != kPayloadEncodingRaw)) {
    throw ProtocolError(
        "serve protocol: only a v4 frame can carry a deadline budget or payload encoding");
  }
  if (frame.payload_encoding > kPayloadEncodingCodec) {
    throw ProtocolError("serve protocol: unknown payload encoding " +
                        std::to_string(frame.payload_encoding));
  }
  if (static_cast<std::uint16_t>(frame.status) > kMaxWireStatus) {
    throw ProtocolError("serve protocol: cannot encode status " +
                        std::to_string(static_cast<std::uint16_t>(frame.status)));
  }
  if (frame.model.size() > kMaxModelNameBytes) {
    throw ProtocolError("serve protocol: model name exceeds kMaxModelNameBytes");
  }
  const std::uint64_t payload_bytes = frame.payload.size() * 4;
  if (payload_bytes > kMaxPayloadBytes) {
    throw ProtocolError("serve protocol: payload exceeds kMaxPayloadBytes");
  }
  const std::size_t name_block =
      frame.version == kProtocolV1 ? 0 : pre_name_bytes(frame.version) + 1 + frame.model.size();
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + name_block + payload_bytes + kTrailerBytes);
  put_u32(out, kFrameMagic);
  out.push_back(frame.version);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  put_u16(out, static_cast<std::uint16_t>(frame.status));
  put_u64(out, frame.request_id);
  put_u32(out, static_cast<std::uint32_t>(payload_bytes));
  if (frame.version == kProtocolV4) {
    put_u64(out, frame.deadline_us);
    out.push_back(frame.payload_encoding);
  }
  if (frame.version != kProtocolV1) {
    out.push_back(static_cast<std::uint8_t>(frame.model.size()));
    out.insert(out.end(), frame.model.begin(), frame.model.end());
  }
  for (const std::uint32_t p : frame.payload) put_u32(out, p);
  put_u32(out, crc32(out));
  return out;
}

Frame decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    throw ProtocolError("serve protocol: truncated frame (shorter than header + CRC)");
  }
  const Header h = parse_header(bytes);
  const std::size_t at = payload_offset(h, bytes);
  if (at == 0 || bytes.size() != at + h.payload_bytes + kTrailerBytes) {
    throw ProtocolError("serve protocol: frame length disagrees with length fields");
  }
  const std::uint32_t want = get_u32(bytes, at + h.payload_bytes);
  const std::uint32_t got = crc32(bytes.first(at + h.payload_bytes));
  if (want != got) throw ProtocolError("serve protocol: CRC mismatch");

  Frame frame;
  frame.version = h.version;
  frame.type = h.type;
  frame.status = h.status;
  frame.request_id = h.request_id;
  if (h.version == kProtocolV4) {
    frame.deadline_us = get_u64(bytes, kHeaderBytes);
    frame.payload_encoding = bytes[kHeaderBytes + kDeadlineBytes];
    if (frame.payload_encoding > kPayloadEncodingCodec) {
      throw ProtocolError("serve protocol: unknown payload encoding " +
                          std::to_string(frame.payload_encoding));
    }
  }
  if (h.version != kProtocolV1) {
    frame.model.assign(bytes.begin() + name_offset(h.version), bytes.begin() + at);
  }
  frame.payload.resize(h.payload_bytes / 4);
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = get_u32(bytes, at + i * 4);
  }
  return frame;
}

std::optional<Frame> try_extract(std::span<const std::uint8_t> bytes, std::size_t& consumed) {
  consumed = 0;
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  // Validate the header as soon as it is complete: garbage must fail here,
  // not stall the connection waiting for a length it promised.
  const Header h = parse_header(bytes);
  const std::size_t at = payload_offset(h, bytes);
  if (at == 0) return std::nullopt;
  const std::size_t total = at + h.payload_bytes + kTrailerBytes;
  if (bytes.size() < total) return std::nullopt;
  Frame frame = decode(bytes.first(total));
  consumed = total;
  return frame;
}

void write_frame(FdStream& stream, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode(frame);
  stream.write_all(bytes.data(), bytes.size());
}

}  // namespace dp::serve
