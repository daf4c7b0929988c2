#pragma once
// serve::Server / serve::Client — the request/response front-end over the
// wire protocol, driven by N sharded poll(2) event loops.
//
// The server is split into `ServerOptions::shards` independent shards. Each
// shard is one event-loop thread, and it is the only thread that touches the
// connections it accepted — fds, read buffers, write queues:
//
//   * accept — in-process connections (Server::connect(), zero network, what
//     CI leans on) are dealt round-robin onto the shards' LocalTransports;
//     TCP connections (ServerOptions::tcp_port) arrive through one
//     SO_REUSEPORT listener PER SHARD on the same port, so the kernel
//     spreads inbound connections across the shards with no accept lock and
//     no thundering herd;
//   * read — per-connection read buffers accumulate bytes and frames are
//     carved off incrementally (try_extract), so a thousand clients cost a
//     thousand fds, not a thousand blocked reader threads;
//   * write — a dispatcher encodes each response on its own thread and posts
//     it to the shard's completion inbox; the loop moves the inbox onto the
//     connections' write queues once per iteration and flushes queues as
//     sockets accept bytes, so a slow reader never blocks a dispatcher.
//
// All shards route through ONE shared ModelRegistry. Each registry entry
// carries `lanes` independent DynamicBatchers (identical, over the one
// immutable Model); shard s submits into lane s, so admission never
// contends across shards, while hot swap/unload still drains every lane
// before releasing an entry. The registry's lease pin means a request that
// resolved an entry before a swap lands in the old lanes and is answered
// from the old model. The single-model constructor sizes its private
// registry's lanes to the shard count and points every dispatcher Session at
// one shared runtime::WorkerPool, so N shards never oversubscribe the
// machine with N private pools.
//
// Two on-by-default bounds cap what a client can pin: the batcher's
// queue_capacity (a full lane answers kQueueFull), and kMaxWriteQueueBytes /
// write_timeout (a connection whose write queue overflows, or makes no
// progress because the peer stopped reading, is dropped and its remaining
// responses discarded).
//
// Requests may carry a protocol-v4 deadline budget; the shard converts it
// to a steady-clock instant at decode and the batcher sheds the request
// with kDeadlineExceeded if it expires while still queued (batcher.hpp).
//
// Observability: Server::metrics_text() renders a plaintext page of
// per-shard and per-model counters (format pinned in docs/serving.md). It is
// scraped through ServerOptions::metrics_port, a side TCP listener that
// writes the page to every connection and closes (curl/nc-friendly, no
// framing).
//
// Request path per frame: the owning shard decodes it, routes it through
// the registry — a v2/v4 frame by its model-name field, a v1 frame (or an
// empty name) to the default entry; an unknown name gets kNotFound — checks
// the feature count against that entry's model (mismatch -> kBadRequest
// without touching the batcher), and submits into the entry's lane for this
// shard while holding a registry lease. The completion callback (dispatcher
// thread) encodes the response and posts it to the shard; responses to one
// connection may complete out of request order and the echoed request id is
// what lets the client demux them. A framing error (bad magic/CRC) is unrecoverable
// on a byte stream, so the shard drops that connection and counts it.
//
// Client threading contract mirrors runtime::Session: one Client is
// single-caller state (calls on it must not overlap); open as many Clients
// as there are concurrent caller threads.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "numeric/encode_table.hpp"
#include "numeric/format.hpp"
#include "runtime/model.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/transport.hpp"

namespace dp::serve {

/// Byte bound on one connection's queued-but-unsent responses; past it the
/// connection is dropped. Together with ServerOptions::write_timeout this
/// bounds the memory a non-reading client can pin.
constexpr std::size_t kMaxWriteQueueBytes = 4u << 20;

struct ServerOptions {
  /// Batcher of the implicit "default" entry the single-model constructor
  /// creates. Ignored by the registry constructor (each registry entry
  /// carries its own BatcherOptions).
  BatcherOptions batcher = {};
  /// A connection whose non-empty write queue makes no progress for this
  /// long counts as dead (the peer stopped reading): it is dropped and its
  /// remaining responses discarded. Must be positive (the constructor throws
  /// std::invalid_argument otherwise); it also bounds how long stop() waits
  /// on a client that stopped reading.
  std::chrono::milliseconds write_timeout{5000};
  /// When set, also listen for real TCP clients on 127.0.0.1:tcp_port
  /// (0 = ephemeral; read the bound port back with Server::tcp_port()).
  /// With shards > 1 every shard gets its own SO_REUSEPORT listener on the
  /// same port.
  std::optional<std::uint16_t> tcp_port;
  /// Event-loop shards. 0 resolves to std::thread::hardware_concurrency().
  /// The single-model constructor also sizes its private registry's
  /// admission lanes to this count.
  std::size_t shards = 1;
  /// When set, a side TCP listener on 127.0.0.1:metrics_port (0 =
  /// ephemeral; read back with Server::metrics_port()) that writes
  /// metrics_text() to every connection and closes it — scrape with
  /// nc/curl, no protocol framing involved. Served by shard 0's loop.
  std::optional<std::uint16_t> metrics_port;
};

/// Wire- and connection-level counters of ONE shard (Server::shard_stats();
/// the metrics page renders these per shard).
struct ShardStats {
  std::uint64_t connections = 0;     ///< request connections accepted
  std::uint64_t frames_in = 0;       ///< request frames decoded
  std::uint64_t frames_out = 0;      ///< response frames fully written
  std::uint64_t bad_frames = 0;      ///< framing errors (connection dropped)
  std::uint64_t bad_requests = 0;    ///< well-framed but invalid (wrong dim / type)
  std::uint64_t not_found = 0;       ///< v2 requests naming an unknown model
  std::uint64_t dropped = 0;         ///< connections dropped (stall / overflow / bad frame)
  /// No path in this server sets it any more; the field and its
  /// dp_shard_overloaded page line stay for existing readers.
  std::uint64_t overloaded = 0;
  std::uint64_t metrics_scrapes = 0; ///< metrics pages served by the side listener
};

/// Whole-server counters (every ShardStats field summed across shards) plus
/// the default entry's batcher stats, aggregated across its admission lanes
/// (per-entry stats for other models: ModelRegistry::stats()).
struct ServerStats {
  BatcherStats batcher;              ///< the default registry entry, all lanes
  std::uint64_t connections = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t not_found = 0;
  std::uint64_t dropped = 0;
  std::uint64_t overloaded = 0;      ///< always 0 (see ShardStats::overloaded)
  std::uint64_t metrics_scrapes = 0;
};

class Client;

class Server {
 public:
  /// Single-model convenience: builds a private registry holding `model`
  /// under the name "default", with one admission lane per shard and one
  /// shared worker pool behind every dispatcher Session. Throws
  /// std::invalid_argument on a null model.
  explicit Server(std::shared_ptr<const runtime::Model> model, ServerOptions opts = {});

  /// Serve an externally owned registry (multi-model; hot load/swap/unload
  /// through it while serving). The registry must outlive the Server, and
  /// stop() drains and shuts it down (its entries keep answering until every
  /// accepted request is flushed). Shard s submits into entry lane
  /// s % registry.lanes() — build the registry with lanes = the shard count
  /// to give every shard a private admission lane.
  explicit Server(ModelRegistry& registry, ServerOptions opts = {});

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The registry requests are routed through (the private one for the
  /// single-model constructor).
  ModelRegistry& registry() { return *registry_; }

  /// The default entry's model — a shared handle, because a hot swap or
  /// unload of that entry can release the registry's own reference at any
  /// time. Throws std::runtime_error if no default entry exists (possible
  /// only with an externally managed registry).
  std::shared_ptr<const runtime::Model> model() const;

  /// Bound TCP port; 0 when the server was built without a TCP listener.
  /// With shards > 1 all shard listeners share this port via SO_REUSEPORT.
  std::uint16_t tcp_port() const { return tcp_port_; }

  /// Bound metrics port; 0 when built without a metrics listener.
  std::uint16_t metrics_port() const { return metrics_port_; }

  /// Number of event-loop shards.
  std::size_t shards() const { return shards_.size(); }

  /// Open a new in-process connection to the default entry (connections are
  /// dealt round-robin across the shards). Throws std::runtime_error after
  /// stop().
  Client connect();

  /// In-process connection whose requests route to `model_name` (v2
  /// frames). Throws std::invalid_argument if the name resolves to nothing
  /// right now (the client needs that entry's format to quantize).
  Client connect(const std::string& model_name);

  ServerStats stats() const;

  /// Per-shard counter snapshots, indexed by shard.
  std::vector<ShardStats> shard_stats() const;

  /// The plaintext metrics page: one `name{labels} value` line per metric,
  /// first line `# dp_serve metrics v1`. Per-shard counters are labelled
  /// {shard="i"}, per-model batcher stats {model="name"}. The exact field
  /// set is part of the scrape contract (docs/serving.md) and pinned by
  /// tests/serve/shard_server_test.cpp. Safe from any thread.
  std::string metrics_text() const;

  /// Orderly shutdown: drain the registry (every accepted request is
  /// answered from the model that accepted it), flush every write queue,
  /// close every connection, join all shard loops. Idempotent; the
  /// destructor calls it. Clients see end-of-stream afterwards.
  void stop();

 private:
  struct Shard;

  /// One live connection. Only its owning shard's loop thread touches it;
  /// a dispatcher holds a shared_ptr only to address its Completion.
  struct Conn {
    explicit Conn(FdStream s) : stream(std::move(s)) {}

    /// Queue one encoded frame (or, for a scrape, the page) for flushing.
    void push(std::vector<std::uint8_t> bytes) {
      wq_bytes += bytes.size();
      wq.push_back(std::move(bytes));
    }

    FdStream stream;  // invalid once closed
    std::vector<std::uint8_t> rbuf;
    std::size_t rbuf_head = 0;  // parsed-prefix offset, compacted periodically
    bool read_done = false;     // EOF seen (or reads abandoned during stop)
    bool raw = false;           // metrics scrape: wq holds raw text, not frames
    std::chrono::steady_clock::time_point last_progress{};  // write-stall clock
    std::deque<std::vector<std::uint8_t>> wq;  // whole encoded frames
    std::size_t wq_front_off = 0;              // bytes of wq.front() already written
    std::size_t wq_bytes = 0;
    std::uint64_t outstanding = 0;  // submitted, Completion not yet taken
  };

  /// A dispatcher's encoded response, on its way to `conn`'s write queue.
  struct Completion {
    std::shared_ptr<Conn> conn;
    std::vector<std::uint8_t> bytes;
  };

  /// One accept source: a LocalTransport, a TCP listener or the metrics
  /// listener.
  struct Listener {
    std::unique_ptr<Transport> transport;
    bool metrics = false;  // write the metrics page and close, no framing
    /// While accept(2) fails on resource exhaustion the backlog keeps the
    /// listener readable; it stays out of the poll set until this instant.
    std::chrono::steady_clock::time_point backoff{};
  };

  /// One event-loop shard: its accept sources, wake pipe, loop thread,
  /// scratch buffers, counters and completion inbox. Connections live in
  /// the loop's locals.
  struct Shard {
    std::size_t index = 0;
    /// [0] is the LocalTransport connect() deals onto; then the TCP listener
    /// (when TCP is on) and the metrics listener (shard 0 only). Cleared when
    /// the loop exits, so a late TCP connect is refused.
    std::vector<Listener> listeners;
    FdStream wake_r, wake_w;          // self-pipe: inbox non-empty / stop
    std::thread loop;
    std::vector<std::uint8_t> chunk;  // one read() slice; loop only

    mutable std::mutex m;  // counters and inbox
    ShardStats counters;
    std::vector<Completion> inbox;  // posted by dispatchers, taken by the loop
  };

  /// The common constructor both public ones delegate to: exactly one of
  /// `owned`/`external` is set.
  Server(std::unique_ptr<ModelRegistry> owned, ModelRegistry* external, ServerOptions opts);

  void loop_main(Shard& sh);
  static void wake(Shard& sh);
  /// Drain `l`'s pending connections into `conns`.
  void accept_from(Shard& sh, const Listener& l, std::vector<std::shared_ptr<Conn>>& conns);
  /// Close `conn` for good. A `dropped` connection (stall, overflow, bad
  /// frame, reset) is counted and its unsent responses discarded.
  void close_conn(Shard& sh, Conn& conn, bool dropped);
  /// Read one chunk — or, with `all`, until the socket would block — and
  /// answer every complete frame. Returns false if the connection must be
  /// dropped (a reset, or a framing error, which is counted).
  bool read_conn(Shard& sh, const std::shared_ptr<Conn>& conn, bool all);
  /// Route one frame, counting into `tally` what the shard counts.
  void handle_request(Shard& sh, const std::shared_ptr<Conn>& conn, Frame frame,
                      ShardStats& tally);
  /// Flush as much queued response data as the socket takes right now.
  /// Returns false if the connection died mid-write.
  bool flush_writes(Shard& sh, Conn& conn);
  void bump(Shard& sh, std::uint64_t ShardStats::* counter);

  ModelRegistry* registry_;                          // routing target
  std::unique_ptr<ModelRegistry> owned_registry_;    // single-model constructor
  const std::chrono::milliseconds write_timeout_;
  const std::chrono::steady_clock::time_point start_;  // metrics uptime epoch

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t tcp_port_ = 0;
  std::uint16_t metrics_port_ = 0;

  std::atomic<bool> draining_{false};  // stop() begun: new requests -> kShutdown
  std::atomic<bool> stopping_{false};  // loops must flush, close and exit

  mutable std::mutex m_;     // stop bookkeeping + connect round-robin
  std::size_t next_shard_ = 0;  // round-robin cursor for connect()
  bool stopped_ = false;     // connect() refuses (stop() begun, or a loop died)
  bool stop_called_ = false; // stop() ran end-to-end (it must always join loops)
};

/// Client-side knobs.
struct ClientOptions {
  /// When set, receive() waits at most this long for the response and then
  /// returns Reply{Status::kTimeout} — the id stays receivable, so a late
  /// response is still buffered for a later receive() on the same id.
  /// receive_frame() throws TransportError on expiry instead (it has no
  /// Reply to carry the status in). Unset = wait forever, the
  /// original blocking behaviour.
  std::optional<std::chrono::milliseconds> recv_timeout;
  /// Entropy-code request payloads (protocol v4, codec/payload.hpp): the
  /// sample's bit patterns travel as a range-coded block and the server
  /// mirrors the encoding on its kOk response. Negotiated per frame, so one
  /// connection can mix raw and compressed requests — but the server must
  /// already understand v4 (upgrade servers first, then flip this on;
  /// docs/operations.md). receive() decodes transparently either way.
  bool compress = false;
};

/// The caller's end of one connection. Two usage styles:
///  * blocking round trip: forward_bits(x) / predict(x);
///  * pipelined: several send()s, then receive(id) in any order — responses
///    arriving for other ids are buffered until their receive().
class Client {
 public:
  /// Adopt an already-connected stream (Server::connect() and connect_tcp()
  /// are the usual front doors; this is for callers that dialed themselves —
  /// e.g. through a fault-injecting relay). `model` must describe the entry
  /// requests route to; an empty `model_name` speaks v1 to the default entry.
  Client(std::shared_ptr<const runtime::Model> model, FdStream stream, std::string model_name)
      : model_(std::move(model)), encode_(model_->input_format()), stream_(std::move(stream)),
        model_name_(std::move(model_name)) {}

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// The request-encode format (the model's input format; replies come back
  /// in model->output_format(), which differs for mixed-precision models).
  const num::Format& format() const { return model_->input_format(); }

  /// The registry entry this client's requests route to; empty = the
  /// server's default entry (v1 frames).
  const std::string& model_name() const { return model_name_; }

  const ClientOptions& options() const { return opts_; }
  void set_options(ClientOptions opts) { opts_ = std::move(opts); }

  /// Quantize `x` into the target model's format (the wire carries raw bit
  /// patterns, docs/serving.md), frame it (v1, v2 when a model name is
  /// attached, v4 when compressing), write it. Returns the request id.
  /// Throws std::invalid_argument unless x.size() == the model input_dim.
  std::uint64_t send(std::span<const double> x);

  /// send() carrying a deadline budget in a v4 frame: microseconds this
  /// request has left, end to end. The server sheds it with
  /// kDeadlineExceeded if the budget expires while it is still queued. 0
  /// means no deadline, framed as send(x) frames it.
  std::uint64_t send(std::span<const double> x, std::uint64_t deadline_budget_us);

  /// Block until the response for `id` arrives (buffering any other
  /// responses seen meanwhile) — or, with ClientOptions::recv_timeout set,
  /// until that much time passes, in which case the reply carries
  /// Status::kTimeout and `id` stays receivable. Throws TransportError if
  /// the server goes away first, std::invalid_argument for an id never sent
  /// or already received.
  Reply receive(std::uint64_t id);

  /// Blocking round trip: readout bit patterns for one sample.
  Reply forward_bits(std::span<const double> x) { return receive(send(x)); }

  /// Blocking round trip decoded to doubles (empty on a non-Ok status).
  std::vector<double> forward(std::span<const double> x);

  /// Blocking round trip to an argmax class (-1 on a non-Ok status).
  int predict(std::span<const double> x);

  // --- Protocol-level escape hatches ---------------------------------------
  // For tests and alternative protocol implementations: bypass the sample
  // encoding and speak raw frames/bytes. Mixing these with pipelined
  // send()/receive() bookkeeping is the caller's problem.

  /// Write one pre-built frame verbatim.
  void send_frame(const Frame& frame) { write_frame(stream_, frame); }

  /// Write arbitrary bytes (e.g. a deliberately corrupted frame).
  void send_bytes(std::span<const std::uint8_t> bytes) {
    stream_.write_all(bytes.data(), bytes.size());
  }

  /// Read the next frame off the wire (through the client's internal read
  /// buffer, so it composes with receive()'s buffering); std::nullopt once
  /// the server closes between frames. Throws ProtocolError on malformed
  /// bytes, and TransportError if the stream ends mid-frame or recv_timeout
  /// expires.
  std::optional<Frame> receive_frame();

  /// Half-close: tells the server this client is done sending.
  void close();

 private:
  friend class Server;
  friend Client connect_tcp(std::uint16_t port, std::shared_ptr<const runtime::Model> model,
                            std::string model_name, ClientOptions opts);

  /// Frame -> Reply, decoding a compressed (v4) response payload back into
  /// raw bit patterns so callers never see the wire encoding. Throws
  /// ProtocolError if the compressed block is malformed.
  Reply to_reply(Frame&& frame);
  /// Framed read through rbuf_: returns the next frame, nullopt on clean
  /// EOF (TransportError on EOF mid-frame); on `deadline` expiry sets `timed_out` and returns nullopt without
  /// consuming anything (a partial frame stays buffered for the next call).
  std::optional<Frame> next_frame(
      const std::optional<std::chrono::steady_clock::time_point>& deadline, bool& timed_out);
  /// The receive deadline implied by opts_.recv_timeout, anchored at now.
  std::optional<std::chrono::steady_clock::time_point> recv_deadline() const;

  std::shared_ptr<const runtime::Model> model_;
  num::Encoder encode_;  // the model's input format
  FdStream stream_;
  std::string model_name_;
  ClientOptions opts_;
  std::uint64_t next_id_ = 1;
  std::vector<std::uint8_t> rbuf_;  // bytes read but not yet framed
  std::size_t rbuf_head_ = 0;       // parsed-prefix offset into rbuf_
  std::map<std::uint64_t, Reply> buffered_;  // out-of-order responses parked here
  std::set<std::uint64_t> awaiting_;         // sent, not yet received
};

/// Connect to a Server's TCP listener on this host (ServerOptions::tcp_port;
/// the port from Server::tcp_port()). `model` must describe the entry the
/// requests route to — the client quantizes features with its format and
/// validates dimensions against it (runtime::Model::load() reloads one from
/// a shipped .dpnet file). An empty `model_name` routes to the server's
/// default entry over protocol v1; a name routes over v2, and a name the
/// server doesn't know earns kNotFound replies, not a connect error.
Client connect_tcp(std::uint16_t port, std::shared_ptr<const runtime::Model> model,
                   std::string model_name = "", ClientOptions opts = {});

}  // namespace dp::serve
