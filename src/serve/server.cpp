#include "serve/server.hpp"

#include <poll.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "codec/payload.hpp"

namespace dp::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// One read() slice per readiness report; level-triggered poll re-reports
/// anything left, so a flooding client cannot monopolize an iteration.
constexpr std::size_t kReadChunk = 64 * 1024;
/// Compact a connection's read buffer once this much parsed prefix
/// accumulates (otherwise only when it empties).
constexpr std::size_t kCompactAt = 64 * 1024;
/// Loop tick while responses are queued but unsendable (socket full), a
/// listener is backing off, or a stop is in progress: bounds how stale a
/// write-stall verdict, a backoff or a stop can get.
constexpr int kTickMs = 20;

void append_counter(std::string& out, const char* name, const std::string& labels,
                    std::uint64_t v) {
  out += name;
  out += labels;
  out += ' ';
  out += std::to_string(v);
  out += '\n';
}

void append_gauge(std::string& out, const char* name, const std::string& labels, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += name;
  out += labels;
  out += ' ';
  out += buf;
  out += '\n';
}

/// Build and encode one response frame. `encoding` mirrors the request's: a
/// kOk response to a compressed (v4) request is itself a compressed v4 frame,
/// entropy-coded at `width` bits per symbol. Everything else — raw requests,
/// and every error status, which has no payload to compress — stays a plain
/// v1 frame, so older clients and raw-only observers never see a v4 byte.
std::vector<std::uint8_t> encode_response(std::uint64_t id, Status status,
                                          std::span<const std::uint32_t> bits = {},
                                          std::uint8_t encoding = kPayloadEncodingRaw,
                                          int width = 0) {
  Frame frame;
  if (status == Status::kOk && encoding == kPayloadEncodingCodec) {
    frame.version = kProtocolV4;
    frame.payload_encoding = kPayloadEncodingCodec;
    frame.payload = codec::encode_payload(bits, width);
  } else {
    frame.version = kProtocolV1;  // responses to raw requests are v1 (see protocol.hpp)
    frame.payload.assign(bits.begin(), bits.end());
  }
  frame.type = FrameType::kResponse;
  frame.status = status;
  frame.request_id = id;
  return encode(frame);
}

std::size_t resolve_shards(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// The single-model constructor's private registry: one entry, "default",
/// with one admission lane per shard. Several shards each spawn dispatcher
/// Sessions; unless the caller wired a pool of their own (or asked for
/// inline single-threaded sessions), point them all at ONE shared
/// WorkerPool so the thread count stays what session_threads says, not
/// shards x dispatchers x session_threads. Throws std::invalid_argument on
/// a null model, before any thread starts.
std::unique_ptr<ModelRegistry> make_default_registry(
    std::shared_ptr<const runtime::Model> model, BatcherOptions opts, std::size_t lanes) {
  if (lanes > 1 && opts.shared_pool == nullptr && opts.session_threads != 1) {
    opts.shared_pool = std::make_shared<runtime::WorkerPool>(opts.session_threads);
  }
  auto registry = std::make_unique<ModelRegistry>(lanes);
  registry->load("default", std::move(model), opts);
  return registry;
}

}  // namespace

// ---------------------------------------------------------------------------
// Server — construction / lifecycle
// ---------------------------------------------------------------------------

Server::Server(std::shared_ptr<const runtime::Model> model, ServerOptions opts)
    : Server(make_default_registry(std::move(model), opts.batcher, resolve_shards(opts.shards)),
             nullptr, opts) {}

Server::Server(ModelRegistry& registry, ServerOptions opts)
    : Server(nullptr, &registry, opts) {}

Server::Server(std::unique_ptr<ModelRegistry> owned, ModelRegistry* external,
               ServerOptions opts)
    : registry_(external != nullptr ? external : owned.get()),
      owned_registry_(std::move(owned)),
      write_timeout_(opts.write_timeout),
      start_(Clock::now()) {
  if (write_timeout_.count() <= 0) {
    throw std::invalid_argument("serve::Server: write_timeout must be positive");
  }
  const std::size_t n = resolve_shards(opts.shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->index = i;
    auto [wake_r, wake_w] = local_stream_pair();
    sh->wake_r = std::move(wake_r);
    sh->wake_w = std::move(wake_w);
    sh->wake_r.set_nonblocking(true);
    sh->wake_w.set_nonblocking(true);
    sh->listeners.push_back({std::make_unique<LocalTransport>()});
    if (opts.tcp_port) {
      // Shard 0 binds (resolving an ephemeral request); the rest join the
      // same port via SO_REUSEPORT, so the kernel hashes inbound connections
      // across the shard listeners with no user-space accept coordination.
      auto tcp = std::make_unique<TcpTransport>(i == 0 ? *opts.tcp_port : tcp_port_, 128, n > 1);
      if (i == 0) tcp_port_ = tcp->port();
      sh->listeners.push_back({std::move(tcp)});
    }
    shards_.push_back(std::move(sh));
  }
  if (opts.metrics_port) {
    auto metrics = std::make_unique<TcpTransport>(*opts.metrics_port);
    metrics_port_ = metrics->port();
    shards_[0]->listeners.push_back({std::move(metrics), true});
  }
  for (auto& sh : shards_) {
    sh->loop = std::thread([this, &sh = *sh] {
      loop_main(sh);
      sh.listeners.clear();  // nobody accepts any more: refuse late connects
    });
  }
}

Server::~Server() { stop(); }

void Server::wake(Shard& sh) {
  const char byte = 1;
  // If the pipe is full the loop has plenty to wake up for already.
  (void)sh.wake_w.write_some(&byte, 1);
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(m_);
    // Guarded by stop_called_, not stopped_: a shard's poll-failure exit
    // sets stopped_ on its own, and stop() must still run to completion
    // then — otherwise ~Server would destroy joinable threads.
    if (stop_called_) return;
    stop_called_ = true;
    stopped_ = true;
  }
  // Phase 1 — drain. New requests read from here on get kShutdown; every
  // request already accepted by a batcher lane is flushed through its
  // Session and its response posted (ModelRegistry::shutdown_all returns
  // only after every dispatcher joined, i.e. after every completion
  // callback fired).
  draining_.store(true);
  registry_->shutdown_all();
  // Phase 2 — flush and close. Every shard writes out every queue (dropping
  // clients that stall past write_timeout), closes its connections, exits.
  stopping_.store(true);
  for (auto& sh : shards_) wake(*sh);
  for (auto& sh : shards_) {
    if (sh->loop.joinable()) sh->loop.join();
  }
}

std::shared_ptr<const runtime::Model> Server::model() const {
  std::shared_ptr<const runtime::Model> m = registry_->model("");
  if (!m) throw std::runtime_error("serve::Server: no default model entry");
  return m;
}

Client Server::connect() { return connect(std::string()); }

Client Server::connect(const std::string& model_name) {
  std::shared_ptr<const runtime::Model> model = registry_->model(model_name);
  auto [server_end, client_end] = local_stream_pair();
  {
    // The stopped_ check and the push are one critical section: a connect
    // that loses the race against stop() must throw, not strand a pushed
    // connection nobody will ever accept. (A connect that wins the race but
    // whose connection the stopping loop refuses gets a clean EOF.)
    std::lock_guard<std::mutex> lk(m_);
    if (stopped_) throw std::runtime_error("serve::Server: connect() after stop()");
    if (!model) {
      throw std::invalid_argument("serve::Server: connect() to unknown model '" +
                                  model_name + "'");
    }
    // Deal in-process connections round-robin onto the shards' LocalTransports
    // (listeners[0]), the accept fan-out for the transport that has no kernel
    // to spread it. The push wakes that shard.
    Shard& sh = *shards_[next_shard_++ % shards_.size()];
    static_cast<LocalTransport&>(*sh.listeners[0].transport).push(std::move(server_end));
  }
  return Client(std::move(model), std::move(client_end), model_name);
}

ServerStats Server::stats() const {
  ServerStats s;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->m);
    const ShardStats& c = sh->counters;
    s.connections += c.connections;
    s.frames_in += c.frames_in;
    s.frames_out += c.frames_out;
    s.bad_frames += c.bad_frames;
    s.bad_requests += c.bad_requests;
    s.not_found += c.not_found;
    s.dropped += c.dropped;
    s.overloaded += c.overloaded;
    s.metrics_scrapes += c.metrics_scrapes;
  }
  if (const std::optional<BatcherStats> b = registry_->stats("")) s.batcher = *b;
  return s;
}

std::vector<ShardStats> Server::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->m);
    out.push_back(sh->counters);
  }
  return out;
}

std::string Server::metrics_text() const {
  // Plaintext scrape page: `name{labels} value` lines. The field set below
  // is a contract — scrapers parse it — so additions are fine, renames and
  // removals are not (docs/serving.md documents every line).
  std::string out;
  out.reserve(1024);
  out += "# dp_serve metrics v1\n";
  const double up = std::chrono::duration<double>(Clock::now() - start_).count();
  const std::vector<ShardStats> per_shard = shard_stats();
  std::uint64_t requests_total = 0;
  for (const ShardStats& s : per_shard) requests_total += s.frames_in;
  const unsigned hw = std::thread::hardware_concurrency();
  append_gauge(out, "dp_uptime_seconds", "", up);
  append_counter(out, "dp_hardware_concurrency", "", hw == 0 ? 1 : hw);
  append_counter(out, "dp_shards", "", per_shard.size());
  append_counter(out, "dp_requests_total", "", requests_total);
  append_gauge(out, "dp_requests_per_second", "",
               up > 0 ? static_cast<double>(requests_total) / up : 0.0);
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    const ShardStats& s = per_shard[i];
    const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    append_counter(out, "dp_shard_connections", label, s.connections);
    append_counter(out, "dp_shard_frames_in", label, s.frames_in);
    append_counter(out, "dp_shard_frames_out", label, s.frames_out);
    append_counter(out, "dp_shard_bad_frames", label, s.bad_frames);
    append_counter(out, "dp_shard_bad_requests", label, s.bad_requests);
    append_counter(out, "dp_shard_not_found", label, s.not_found);
    append_counter(out, "dp_shard_dropped", label, s.dropped);
    append_counter(out, "dp_shard_overloaded", label, s.overloaded);
    append_counter(out, "dp_shard_metrics_scrapes", label, s.metrics_scrapes);
  }
  for (const std::string& name : registry_->names()) {
    const std::optional<BatcherStats> b = registry_->stats(name);
    if (!b) continue;  // unloaded between names() and here
    const std::string label = "{model=\"" + name + "\"}";
    append_counter(out, "dp_model_accepted", label, b->accepted);
    append_counter(out, "dp_model_rejected", label, b->rejected);
    append_counter(out, "dp_model_completed", label, b->completed);
    append_counter(out, "dp_model_deadline_exceeded", label, b->deadline_exceeded);
    append_counter(out, "dp_model_batches", label, b->batches);
    append_counter(out, "dp_model_queue_depth", label, b->queue_depth);
    append_counter(out, "dp_model_in_flight", label, b->in_flight);
    append_gauge(out, "dp_model_occupancy", label, b->mean_occupancy);
    append_gauge(out, "dp_model_wait_p50_us", label, b->wait_p50_us);
    append_gauge(out, "dp_model_wait_p99_us", label, b->wait_p99_us);
    append_gauge(out, "dp_model_wait_p999_us", label, b->wait_p999_us);
  }
  return out;
}

void Server::bump(Shard& sh, std::uint64_t ShardStats::* counter) {
  std::lock_guard<std::mutex> lk(sh.m);
  ++(sh.counters.*counter);
}

// ---------------------------------------------------------------------------
// Server — event loops (one per shard)
// ---------------------------------------------------------------------------

void Server::accept_from(Shard& sh, const Listener& l,
                         std::vector<std::shared_ptr<Conn>>& conns) {
  for (;;) {
    FdStream stream = l.transport->accept();
    if (!stream.valid()) return;
    // A connection that reaches us during stop is admitted, not dropped: it
    // may carry requests pipelined before stop() began, and closing it
    // unread would reset the peer. The stopping loop's final sweep answers
    // them kShutdown and ends the stream with a clean EOF.
    stream.set_nonblocking(true);
    auto conn = std::make_shared<Conn>(std::move(stream));
    conn->last_progress = Clock::now();
    if (l.metrics) {
      // One-shot scrape: the page is queued now, the read side is
      // short-circuited, and the graceful-close path closes the connection
      // the moment the queue flushes. No framing — nc/curl territory.
      conn->raw = true;
      conn->read_done = true;
      const std::string text = metrics_text();
      conn->push({text.begin(), text.end()});
    }
    bump(sh, l.metrics ? &ShardStats::metrics_scrapes : &ShardStats::connections);
    conns.push_back(std::move(conn));
  }
}

void Server::close_conn(Shard& sh, Conn& conn, bool dropped) {
  conn.stream.shutdown_both();
  conn.stream.close();
  conn.wq.clear();
  if (dropped) bump(sh, &ShardStats::dropped);
}

void Server::loop_main(Shard& sh) {
  sh.chunk.resize(kReadChunk);
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<Completion> done;
  std::vector<pollfd> pfds;

  for (;;) {
    const bool stopping = stopping_.load();

    // --- poll set (poll(2) ignores a negative fd: a listener's backoff) -----
    int timeout = stopping ? kTickMs : -1;
    pfds.clear();
    pfds.push_back({sh.wake_r.fd(), POLLIN, 0});
    for (const Listener& l : sh.listeners) {
      const bool parked = Clock::now() < l.backoff;
      if (parked) timeout = kTickMs;
      pfds.push_back({parked ? -1 : l.transport->readiness_fd(), POLLIN, 0});
    }
    const std::size_t base = pfds.size();
    for (const std::shared_ptr<Conn>& conn : conns) {
      short events = 0;
      if (!conn->read_done && !stopping) events |= POLLIN;
      if (!conn->wq.empty()) {
        events |= POLLOUT;
        timeout = kTickMs;
      }
      pfds.push_back({conn->stream.fd(), events, 0});
    }

    if (::poll(pfds.data(), pfds.size(), timeout) < 0 && errno != EINTR) {
      // Unrecoverable poll failure (should not happen): die visibly. Marking
      // the server stopped makes later connect() calls throw instead of
      // handing out Clients nobody will ever accept.
      for (const std::shared_ptr<Conn>& conn : conns) close_conn(sh, *conn, true);
      std::lock_guard<std::mutex> lk(m_);
      stopped_ = true;
      draining_.store(true);
      return;
    }

    // --- wakeups, completions, new connections ----------------------------
    // Drain the wake pipe before taking the inbox, never after: a completion
    // posted in between would have its wake byte swallowed and sit in the
    // inbox until something else woke the loop.
    if (pfds[0].revents != 0) {
      char drain[256];
      while (sh.wake_r.read_some(drain, sizeof(drain)) > 0) {
      }
    }
    {
      std::lock_guard<std::mutex> lk(sh.m);
      done.swap(sh.inbox);
    }
    for (Completion& c : done) {
      --c.conn->outstanding;
      if (c.conn->stream.valid()) c.conn->push(std::move(c.bytes));  // else dropped: discard
    }
    done.clear();
    for (std::size_t i = 0; i < sh.listeners.size(); ++i) {
      if (pfds[1 + i].revents == 0) continue;
      try {
        accept_from(sh, sh.listeners[i], conns);
      } catch (const TransportError&) {
        // Out of fds (or similar): the connection being registered is lost
        // (its FdStream closed); park the listener and retry shortly.
        sh.listeners[i].backoff = Clock::now() + std::chrono::milliseconds(200);
      }
    }

    // --- per-connection readiness (only the conns present in this poll set;
    // fresh accepts join the next iteration) --------------------------------
    const auto now = Clock::now();
    for (std::size_t i = 0; i < pfds.size() - base; ++i) {
      const std::shared_ptr<Conn>& conn = conns[i];
      const short revents = pfds[base + i].revents;
      bool alive = true;

      // Read side. POLLHUP can still have readable bytes queued ahead of the
      // EOF, so treat it as readable and let read_some report the 0.
      if (!conn->read_done && !stopping && (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        alive = read_conn(sh, conn, false);
      }

      // A peer that is fully gone (POLLHUP/POLLERR after its EOF) with work
      // still pending: the work is undeliverable, and poll(2) reports these
      // conditions regardless of the events mask, so keeping it would spin
      // the loop: drop it. A fully served one (e.g. an in-process Client
      // destroyed) closes cleanly below.
      if (conn->read_done && (revents & (POLLHUP | POLLERR | POLLNVAL)) != 0 &&
          (conn->outstanding > 0 || !conn->wq.empty())) {
        alive = false;
      }

      // Write side, under the byte bound.
      alive = alive && conn->wq_bytes <= kMaxWriteQueueBytes && flush_writes(sh, *conn);

      if (!alive) {
        close_conn(sh, *conn, true);
      } else if (!conn->wq.empty()) {
        if (now - conn->last_progress > write_timeout_) {
          close_conn(sh, *conn, true);  // peer stopped reading
        }
      } else {
        conn->last_progress = now;
        // Fully served and finished: graceful close once nothing is in
        // flight. stop() forces the same path for every connection.
        if ((conn->read_done || stopping) && conn->outstanding == 0) {
          if (!conn->read_done) {
            // stop() parks the read side, so requests pipelined before it
            // may sit unread, and close(2) with unread data would reset the
            // peer, destroying responses it has not read yet. One final
            // sweep answers them kShutdown (handle_request's draining_
            // path); then reading is over, so a client that keeps sending
            // cannot hold stop() up. A reset or framing error ends the sweep.
            (void)read_conn(sh, conn, true);
            conn->read_done = true;
          }
          // kShutdown replies from the sweep are flushed before the close.
          if (conn->wq.empty()) close_conn(sh, *conn, false);
        }
      }
    }
    std::erase_if(conns, [](const std::shared_ptr<Conn>& c) { return !c->stream.valid(); });

    if (stopping && conns.empty()) return;
  }
}

bool Server::read_conn(Shard& sh, const std::shared_ptr<Conn>& conn, bool all) {
  ShardStats tally;  // folded in under one lock per call, never one per frame
  bool ok = true;
  do {
    ssize_t n = 0;
    try {
      n = conn->stream.read_some(sh.chunk.data(), sh.chunk.size());
    } catch (const TransportError&) {
      ok = false;  // reset under us
      break;
    }
    if (n == 0) conn->read_done = true;
    if (n <= 0) break;
    conn->rbuf.insert(conn->rbuf.end(), sh.chunk.begin(), sh.chunk.begin() + n);
    for (;;) {
      const std::span<const std::uint8_t> avail(conn->rbuf.data() + conn->rbuf_head,
                                                conn->rbuf.size() - conn->rbuf_head);
      std::size_t consumed = 0;
      std::optional<Frame> frame;
      try {
        frame = try_extract(avail, consumed);
      } catch (const ProtocolError&) {
        ++tally.bad_frames;  // un-resyncable on a byte stream
        ok = false;
        break;
      }
      if (!frame) break;
      conn->rbuf_head += consumed;
      ++tally.frames_in;
      handle_request(sh, conn, std::move(*frame), tally);
    }
  } while (ok && all);
  if (tally.frames_in + tally.bad_frames > 0) {
    std::lock_guard<std::mutex> lk(sh.m);
    sh.counters.frames_in += tally.frames_in;
    sh.counters.bad_frames += tally.bad_frames;
    sh.counters.bad_requests += tally.bad_requests;
    sh.counters.not_found += tally.not_found;
  }
  if (conn->rbuf_head == conn->rbuf.size() || conn->rbuf_head >= kCompactAt) {
    conn->rbuf.erase(conn->rbuf.begin(),
                     conn->rbuf.begin() + static_cast<std::ptrdiff_t>(conn->rbuf_head));
    conn->rbuf_head = 0;
  }
  return ok;
}

void Server::handle_request(Shard& sh, const std::shared_ptr<Conn>& conn, Frame frame,
                            ShardStats& tally) {
  const std::uint64_t id = frame.request_id;
  // Answered here on the loop thread, so the reply goes straight onto the queue.
  const auto reject = [&](Status status) {
    if (status == Status::kBadRequest) ++tally.bad_requests;
    if (status == Status::kNotFound) ++tally.not_found;
    conn->push(encode_response(id, status));
  };
  if (draining_.load()) return reject(Status::kShutdown);
  if (frame.type != FrameType::kRequest) return reject(Status::kBadRequest);
  // Route: v2/v4 by name, v1 (empty name) to the default entry. The lease
  // pins the entry so a concurrent hot swap waits for this submit to land,
  // then drains it on the old model — never drops it.
  ModelRegistry::Lease lease = registry_->acquire(frame.model);
  // Re-check draining_ on a miss: stop() may have emptied the registry
  // since the check above, and that must read as a shutdown, not as "your
  // model does not exist".
  if (!lease) return reject(draining_.load() ? Status::kShutdown : Status::kNotFound);
  const std::size_t dim = lease->model->input_dim();
  // Requests carry INPUT-format patterns (the client's one encode rule);
  // replies carry OUTPUT-format patterns — for a mixed-precision model the
  // two differ, so the compressed-payload widths below are chosen per
  // direction.
  const num::Format& fmt = lease->model->input_format();
  // A v4 compressed payload is an entropy-coded block; decode it back into
  // bit patterns before anything interprets it. The decoder is the one that
  // faces untrusted bytes, and it fails closed: any malformed block — bad
  // length, bad padding, hostile element count — is a CodecError, answered
  // kBadRequest exactly like a wrong-dimension raw request (the framing
  // layer already vouched for the CRC, so the connection itself is fine).
  std::span<const std::uint32_t> patterns = frame.payload;
  std::vector<std::uint32_t> decoded;
  if (frame.payload_encoding == kPayloadEncodingCodec) {
    try {
      decoded = codec::decode_payload(frame.payload, fmt.total_bits(), dim);
    } catch (const codec::CodecError&) {
      return reject(Status::kBadRequest);
    }
    patterns = decoded;
  }
  if (patterns.size() != dim) return reject(Status::kBadRequest);
  // The v4 deadline budget is relative (microseconds remaining, so it
  // survives clock skew); anchor it to OUR steady clock the moment the
  // request enters the process. The batcher sheds it with kDeadlineExceeded
  // if the instant passes while it is still queued.
  DynamicBatcher::Deadline deadline;
  if (frame.deadline_us > 0) {
    deadline = Clock::now() + std::chrono::microseconds(frame.deadline_us);
  }
  ++conn->outstanding;
  // Shard-private admission lane: no cross-shard contention on the submit
  // lock (lane() wraps modulo the entry's lane count, so an external
  // registry with fewer lanes than shards still routes correctly).
  const std::uint8_t encoding = frame.payload_encoding;
  const int width = lease->model->output_format().total_bits();
  // The patterns go to the lane as they are: the batcher stages them and
  // the Model reads them as the values they decode to (runtime::PatternView).
  lease->lane(sh.index).submit(
      patterns,
      [&sh, conn, id, encoding, width](Status status, std::span<const std::uint32_t> bits) {
        // Encode here, off the loop; only the loop touches conn itself. This
        // runs on a dispatcher, or inline on the loop (an admission reject).
        Completion c{conn, encode_response(id, status, bits, encoding, width)};
        bool was_empty = false;
        {
          std::lock_guard<std::mutex> lk(sh.m);
          was_empty = sh.inbox.empty();
          sh.inbox.push_back(std::move(c));
        }
        if (was_empty) wake(sh);  // otherwise a wake is already pending
      },
      deadline);
}

bool Server::flush_writes(Shard& sh, Conn& conn) {
  std::size_t completed = 0;
  bool ok = true;
  while (!conn.wq.empty()) {
    const std::vector<std::uint8_t>& front = conn.wq.front();
    ssize_t n = 0;
    try {
      n = conn.stream.write_some(front.data() + conn.wq_front_off,
                                 front.size() - conn.wq_front_off);
    } catch (const TransportError&) {
      ok = false;  // peer vanished
      break;
    }
    if (n < 0) break;  // socket buffer full; POLLOUT will resume us
    conn.wq_front_off += static_cast<std::size_t>(n);
    conn.wq_bytes -= static_cast<std::size_t>(n);
    if (conn.wq_front_off == front.size()) {
      conn.wq.pop_front();
      conn.wq_front_off = 0;
      ++completed;
    }
    conn.last_progress = Clock::now();
  }
  // Raw metrics scrapes are text, not frames; they don't count as frames_out.
  if (completed > 0 && !conn.raw) {
    std::lock_guard<std::mutex> lk(sh.m);
    sh.counters.frames_out += completed;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

std::uint64_t Client::send(std::span<const double> x) { return send(x, 0); }

std::uint64_t Client::send(std::span<const double> x, std::uint64_t deadline_budget_us) {
  if (x.size() != model_->input_dim()) {
    throw std::invalid_argument("serve::Client: sample size != model input_dim");
  }
  Frame frame;
  // Compression and deadlines need the v4 layout; otherwise keep the
  // smallest frame that can route the request (v1 for the default entry, v2
  // for a named one).
  frame.version = opts_.compress || deadline_budget_us > 0 ? kProtocolV4
                  : model_name_.empty()                    ? kProtocolV1
                                                           : kProtocolV2;
  frame.type = FrameType::kRequest;
  frame.request_id = next_id_++;
  frame.model = model_name_;
  frame.deadline_us = deadline_budget_us;
  frame.payload.resize(x.size());
  // Requests are always INPUT-format patterns; replies come back in the
  // model's OUTPUT format (they differ for a mixed-precision model).
  encode_.encode(x, frame.payload.data(), 1);
  if (opts_.compress) {
    frame.payload_encoding = kPayloadEncodingCodec;
    frame.payload = codec::encode_payload(frame.payload, model_->input_format().total_bits());
  }
  write_frame(stream_, frame);
  awaiting_.insert(frame.request_id);
  return frame.request_id;
}

std::optional<std::chrono::steady_clock::time_point> Client::recv_deadline() const {
  if (!opts_.recv_timeout) return std::nullopt;
  return std::chrono::steady_clock::now() + *opts_.recv_timeout;
}

std::optional<Frame> Client::next_frame(
    const std::optional<std::chrono::steady_clock::time_point>& deadline, bool& timed_out) {
  timed_out = false;
  for (;;) {
    // Carve a complete frame off the internal buffer first: bytes already
    // read must never be lost to a timeout.
    const std::span<const std::uint8_t> avail(rbuf_.data() + rbuf_head_,
                                              rbuf_.size() - rbuf_head_);
    std::size_t consumed = 0;
    if (std::optional<Frame> frame = try_extract(avail, consumed)) {
      rbuf_head_ += consumed;
      if (rbuf_head_ == rbuf_.size()) {
        rbuf_.clear();
        rbuf_head_ = 0;
      }
      return frame;
    }
    if (deadline) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= *deadline) {
        timed_out = true;
        return std::nullopt;
      }
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(*deadline - now);
      pollfd p{stream_.fd(), POLLIN, 0};
      // +1: round the remaining wait up, or a sub-millisecond remainder
      // becomes a zero-timeout spin.
      const int rc = ::poll(&p, 1, static_cast<int>(left.count()) + 1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw TransportError("serve::Client: poll failed while waiting for a response");
      }
      if (rc == 0) continue;  // re-check the deadline at the top
    }
    // The fd is blocking; without a deadline this parks until bytes arrive,
    // with one the poll above guaranteed something readable (data or EOF).
    std::uint8_t chunk[4096];
    const ssize_t n = stream_.read_some(chunk, sizeof(chunk));
    if (n == 0) {
      // EOF between frames is a clean close; EOF with part of a frame
      // buffered means the stream died mid-frame.
      if (rbuf_head_ == rbuf_.size()) return std::nullopt;
      throw TransportError("serve::Client: stream ended mid-frame");
    }
    if (n > 0) rbuf_.insert(rbuf_.end(), chunk, chunk + n);
  }
}

Reply Client::to_reply(Frame&& frame) {
  if (frame.payload_encoding == kPayloadEncodingCodec) {
    // A compressed (v4) response: decode the block back into raw bit
    // patterns so every caller above this sees exactly what a raw response
    // would have carried. The bound is the most elements a legal raw payload
    // could hold — the server vouched for nothing smaller.
    try {
      return Reply{frame.status,
                   codec::decode_payload(frame.payload, model_->output_format().total_bits(),
                                         kMaxPayloadBytes / 4)};
    } catch (const codec::CodecError& e) {
      throw ProtocolError(std::string("serve::Client: bad compressed response payload: ") +
                          e.what());
    }
  }
  return Reply{frame.status, std::move(frame.payload)};
}

std::optional<Frame> Client::receive_frame() {
  bool timed_out = false;
  std::optional<Frame> frame = next_frame(recv_deadline(), timed_out);
  if (timed_out) throw TransportError("serve::Client: receive_frame timed out");
  return frame;
}

Reply Client::receive(std::uint64_t id) {
  if (const auto it = buffered_.find(id); it != buffered_.end()) {
    Reply reply = std::move(it->second);
    buffered_.erase(it);
    return reply;
  }
  if (awaiting_.find(id) == awaiting_.end()) {
    throw std::invalid_argument("serve::Client: receive() for an id never sent or already received");
  }
  const std::optional<std::chrono::steady_clock::time_point> deadline = recv_deadline();
  for (;;) {
    bool timed_out = false;
    std::optional<Frame> frame = next_frame(deadline, timed_out);
    if (timed_out) {
      // The id stays in awaiting_: the response may still arrive, and a
      // later receive()/next_frame will buffer or return it. kTimeout never
      // travels on the wire — it is this client's own verdict.
      return Reply{Status::kTimeout, {}};
    }
    if (!frame) throw TransportError("serve::Client: server closed the connection");
    if (frame->type != FrameType::kResponse) {
      throw ProtocolError("serve::Client: server sent a non-response frame");
    }
    awaiting_.erase(frame->request_id);
    if (frame->request_id == id) {
      return to_reply(std::move(*frame));
    }
    // A response for a different pipelined request: park it for its
    // receive(). Out-of-order arrival is normal with dispatchers >= 2.
    const std::uint64_t other = frame->request_id;
    buffered_[other] = to_reply(std::move(*frame));
  }
}

std::vector<double> Client::forward(std::span<const double> x) {
  const Reply reply = forward_bits(x);
  std::vector<double> scores;
  if (!reply.ok()) return scores;
  scores.reserve(reply.bits.size());
  for (const std::uint32_t b : reply.bits) {
    scores.push_back(model_->output_format().to_double(b));
  }
  return scores;
}

int Client::predict(std::span<const double> x) {
  const Reply reply = forward_bits(x);
  if (!reply.ok() || reply.bits.empty()) return -1;
  return model_->argmax_bits(reply.bits);
}

void Client::close() { stream_.shutdown_write(); }

Client connect_tcp(std::uint16_t port, std::shared_ptr<const runtime::Model> model,
                   std::string model_name, ClientOptions opts) {
  if (!model) throw std::invalid_argument("serve::connect_tcp: null model");
  if (model_name.size() > kMaxModelNameBytes) {
    // Catch the configuration mistake here, not as a ProtocolError from the
    // first send().
    throw std::invalid_argument("serve::connect_tcp: model name exceeds kMaxModelNameBytes");
  }
  Client client(std::move(model), tcp_connect(port), std::move(model_name));
  client.set_options(std::move(opts));
  return client;
}

}  // namespace dp::serve
