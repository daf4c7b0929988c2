// End-to-end tests of entropy-coded wire payloads (protocol v4): served
// inference over compressed payloads must be bit-identical to a direct
// runtime::Session, compression is negotiated PER FRAME (raw and codec
// requests interleave freely on one connection, each response mirroring its
// request's encoding), and malformed compressed payloads earn kBadRequest
// without killing the connection.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "codec/payload.hpp"
#include "codec/range_coder.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"
#include "serve/server.hpp"

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
  opts.tcp_port = 0;
  return opts;
}

ClientOptions compressed() {
  ClientOptions opts;
  opts.compress = true;
  return opts;
}

// The acceptance test: compressed-payload round trips produce exactly the
// bits a direct Session produces, across the whole paper format grid.
TEST(CompressedPayload, ServedBitsIdenticalToDirectSessionAcrossPaperGrid) {
  const nn::Mlp net = small_net();
  const std::size_t rows = 3;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const auto model = runtime::Model::create(nn::quantize(net, fmt));
      runtime::Session direct(model);
      const std::vector<double> xs = random_rows(rows, model->input_dim(), 7);

      Server server(model, tcp_options());
      Client client = connect_tcp(server.tcp_port(), model, "", compressed());
      for (std::size_t i = 0; i < rows; ++i) {
        const std::span<const double> x(xs.data() + i * model->input_dim(),
                                        model->input_dim());
        const Reply reply = client.forward_bits(x);
        ASSERT_EQ(reply.status, Status::kOk) << fmt.name() << " row " << i;
        const auto want = direct.forward_bits(x);
        ASSERT_EQ(reply.bits, std::vector<std::uint32_t>(want.begin(), want.end()))
            << fmt.name() << " row " << i;
      }
    }
  }
}

TEST(CompressedPayload, RawAndCompressedRequestsInterleaveOnOneConnection) {
  // Per-frame negotiation: the same connection flips between raw and codec
  // request encodings and every reply is still correct.
  const auto model = runtime::Model::create(
      nn::quantize(small_net(), num::Format{num::PositFormat{8, 1}}));
  runtime::Session direct(model);
  Server server(model, tcp_options());
  Client client = connect_tcp(server.tcp_port(), model);

  const std::vector<double> xs = random_rows(6, model->input_dim(), 13);
  for (std::size_t i = 0; i < 6; ++i) {
    ClientOptions opts;
    opts.compress = (i % 2 == 1);
    client.set_options(opts);
    const std::span<const double> x(xs.data() + i * model->input_dim(),
                                    model->input_dim());
    const Reply reply = client.forward_bits(x);
    ASSERT_EQ(reply.status, Status::kOk) << "row " << i;
    const auto want = direct.forward_bits(x);
    ASSERT_EQ(reply.bits, std::vector<std::uint32_t>(want.begin(), want.end()))
        << "row " << i;
  }
}

TEST(CompressedPayload, ServerMirrorsTheRequestEncodingOnOkResponses) {
  // Speak raw frames to observe the wire: a codec-encoded v4 request earns a
  // codec-encoded v4 response; a raw v4 request earns a plain response.
  const auto model = runtime::Model::create(
      nn::quantize(small_net(), num::Format{num::FixedFormat{8, 6}}));
  const int width = model->format().total_bits();
  Server server(model, tcp_options());
  Client client = connect_tcp(server.tcp_port(), model);

  std::vector<std::uint32_t> patterns(model->input_dim());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    patterns[i] = model->format().from_double(0.1 * static_cast<double>(i + 1));
  }

  Frame compressed_req;
  compressed_req.version = kProtocolV4;
  compressed_req.request_id = 1;
  compressed_req.payload_encoding = kPayloadEncodingCodec;
  compressed_req.payload = codec::encode_payload(patterns, width);
  client.send_frame(compressed_req);
  std::optional<Frame> reply = client.receive_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(reply->version, kProtocolV4);
  EXPECT_EQ(reply->payload_encoding, kPayloadEncodingCodec);
  const std::vector<std::uint32_t> mirrored_bits =
      codec::decode_payload(reply->payload, width, model->output_dim());
  EXPECT_EQ(mirrored_bits.size(), model->output_dim());

  Frame raw_req;
  raw_req.version = kProtocolV4;
  raw_req.request_id = 2;
  raw_req.payload_encoding = kPayloadEncodingRaw;
  raw_req.payload = patterns;
  client.send_frame(raw_req);
  std::optional<Frame> raw_reply = client.receive_frame();
  ASSERT_TRUE(raw_reply.has_value());
  EXPECT_EQ(raw_reply->status, Status::kOk);
  EXPECT_EQ(raw_reply->payload_encoding, kPayloadEncodingRaw);
  // Same inputs, same model: the mirrored-compressed and raw replies carry
  // identical readout bits.
  EXPECT_EQ(raw_reply->payload, mirrored_bits);
}

TEST(CompressedPayload, MalformedCompressedRequestEarnsBadRequestNotDisconnect) {
  const auto model = runtime::Model::create(
      nn::quantize(small_net(), num::Format{num::PositFormat{8, 0}}));
  Server server(model, tcp_options());
  Client client = connect_tcp(server.tcp_port(), model);

  // A structurally valid v4 frame whose codec block lies about its coded
  // length: the server's decode throws, and the verdict is kBadRequest —
  // the frame itself was well-formed, so the connection must survive.
  Frame evil;
  evil.version = kProtocolV4;
  evil.request_id = 9;
  evil.payload_encoding = kPayloadEncodingCodec;
  evil.payload = {static_cast<std::uint32_t>(model->input_dim()), 4096u, 0u, 0u};
  client.send_frame(evil);
  std::optional<Frame> verdict = client.receive_frame();
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->status, Status::kBadRequest);
  EXPECT_EQ(verdict->request_id, 9u);

  // An element count that disagrees with the model's input dimension is
  // caught by the decode bound, same verdict.
  Frame wrong_count;
  wrong_count.version = kProtocolV4;
  wrong_count.request_id = 10;
  wrong_count.payload_encoding = kPayloadEncodingCodec;
  wrong_count.payload = codec::encode_payload(std::vector<std::uint32_t>{1, 2}, 8);
  client.send_frame(wrong_count);
  verdict = client.receive_frame();
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->status, Status::kBadRequest);

  // The connection still serves a good compressed request afterwards.
  client.set_options(compressed());
  const std::vector<double> xs = random_rows(1, model->input_dim(), 3);
  const Reply reply = client.forward_bits(xs);
  EXPECT_EQ(reply.status, Status::kOk);
}

}  // namespace
}  // namespace dp::serve
