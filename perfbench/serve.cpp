// serve-raw and serve-swap-v4: open-loop TCP traffic against serve::Server.

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "codec/container.hpp"
#include "codec/payload.hpp"
#include "nn/io.hpp"
#include "nn/quantize.hpp"
#include "runtime/session.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dpn = dp::nn;
namespace rt = dp::runtime;
namespace sv = dp::serve;
using dp::num::Format;
using dp::num::PositFormat;

namespace {

constexpr std::size_t kShards = 2;
/// Interval of the control thread's stats readings and swaps.
constexpr std::chrono::milliseconds kControlInterval{250};

/// Thread placement. The generator thread gets the last allowed CPU to
/// itself and every server thread runs on the others: left to the
/// scheduler, the threads that wake each other per request pile onto one
/// CPU and preempt the generator, which then sends late by milliseconds.
/// Threads inherit the placement of the thread that creates them, so the
/// set-up and the control thread (whose swaps start new dispatchers) take
/// the server CPUs. A no-op with fewer than two CPUs.
enum class Role { kServer, kGenerator };

void place_thread(Role role) {
  const std::vector<int>& allowed = allowed_cpus();
  if (allowed.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (role == Role::kGenerator) {
    CPU_SET(allowed.back(), &set);
  } else {
    for (std::size_t i = 0; i + 1 < allowed.size(); ++i) CPU_SET(allowed[i], &set);
  }
  set_affinity(set);
}

sv::BatcherOptions serve_batcher() {
  sv::BatcherOptions b;
  b.max_batch = 16;
  b.max_wait = std::chrono::microseconds(200);
  b.queue_capacity = 4096;
  b.dispatchers = 1;
  b.session_threads = 1;
  return b;
}

rt::SessionOptions one_thread() {
  rt::SessionOptions o;
  o.num_threads = 1;
  return o;
}

/// A direct Session's readout for every test row, row-major.
std::vector<std::uint32_t> direct_readout(const std::shared_ptr<const rt::Model>& model,
                                          const Task& task) {
  rt::Session s(model, one_thread());
  std::vector<std::uint32_t> out;
  out.reserve(task.rows() * model->output_dim());
  for (std::size_t r = 0; r < task.rows(); ++r) {
    const auto bits = s.forward_bits(task.row(r));
    out.insert(out.end(), bits.begin(), bits.end());
  }
  return out;
}

/// Open `n` TCP connections (a multiple of the shard count) so that every
/// shard holds the same number. SO_REUSEPORT hashes each connection to a
/// shard, and an uneven split would change the load per shard from run to
/// run; a connection that lands on a full shard is closed and redialled.
std::vector<sv::FdStream> connect_balanced(sv::Server& server, std::size_t n) {
  const std::size_t shards = server.shards();
  const std::size_t cap = (n + shards - 1) / shards;
  const auto accepted = [&server] {
    std::vector<std::uint64_t> a;
    for (const sv::ShardStats& s : server.shard_stats()) a.push_back(s.connections);
    return a;
  };
  std::vector<std::uint64_t> seen = accepted();
  std::vector<std::vector<sv::FdStream>> by_shard(shards);
  std::size_t opened = 0;
  for (int attempt = 0; attempt < 256 && opened < n; ++attempt) {
    sv::FdStream s = sv::tcp_connect(server.tcp_port());
    std::size_t shard = shards;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    while (shard == shards && Clock::now() < deadline) {
      const std::vector<std::uint64_t> now = accepted();
      for (std::size_t i = 0; i < shards; ++i) {
        if (now[i] > seen[i]) shard = i;
      }
      if (shard == shards) std::this_thread::sleep_for(std::chrono::microseconds(50));
      seen = now;
    }
    if (shard == shards) throw std::runtime_error("connection never accepted");
    if (by_shard[shard].size() < cap) {
      s.set_nonblocking(true);
      by_shard[shard].push_back(std::move(s));
      ++opened;
    }
  }
  if (opened < n) throw std::runtime_error("could not balance connections over shards");
  // Interleave, so connection k sits on shard k % shards and round-robin
  // sends reach every shard at the same even spacing.
  std::vector<sv::FdStream> out;
  for (std::size_t k = 0; k < n; ++k) out.push_back(std::move(by_shard[k % shards][k / shards]));
  return out;
}

std::unique_ptr<ServeEnv> start(std::unique_ptr<ServeEnv> env, const std::string& entry,
                                std::size_t conns) {
  place_thread(Role::kServer);
  env->batcher = serve_batcher();
  env->registry = std::make_unique<sv::ModelRegistry>(kShards);
  env->registry->load(entry, env->models.front(), env->batcher);
  sv::ServerOptions so;
  so.shards = kShards;
  so.tcp_port = 0;
  env->server = std::make_unique<sv::Server>(*env->registry, so);
  env->conns = connect_balanced(*env->server, conns);
  return env;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// The control thread of a pass: reads the entry's batcher stats every
/// kControlInterval and, for serve-swap-v4, hot-swaps the entry right after each
/// reading. An entry's counters restart when a swap replaces it, so each
/// reading contributes its increase since the previous reading of the SAME
/// entry, or its whole count after a swap.
class Control {
 public:
  Control(ServeEnv& env, bool swaps, SpanLog* log, PassResult& r)
      : env_(env), swaps_(swaps), log_(log), r_(r) {
    prev_ = env_.registry->stats(env_.model_name);
  }

  void run(Clock::time_point first, Clock::time_point swap_end) {
    Clock::time_point next = first;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(m_);
        if (cv_.wait_until(lk, next, [this] { return stop_; })) return;
      }
      read();
      if (swaps_ && Clock::now() < swap_end) swap();
      next += kControlInterval;
    }
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
  }

  void read() {
    std::optional<sv::BatcherStats> cur;
    {
      Scoped s(log_, "registry.stats");
      cur = env_.registry->stats(env_.model_name);
    }
    if (!cur) return;
    sv::BatcherStats base;
    if (!fresh_ && prev_) base = *prev_;
    r_.batches += cur->batches - base.batches;
    r_.completed += cur->completed - base.completed;
    r_.deadline_exceeded += cur->deadline_exceeded - base.deadline_exceeded;
    r_.rejected += cur->rejected - base.rejected;
    if (cur->completed > base.completed) {
      r_.wait_p50_us.push_back(cur->wait_p50_us);
      r_.wait_p99_us.push_back(cur->wait_p99_us);
    }
    prev_ = cur;
    fresh_ = false;
  }

 private:
  void swap() {
    const std::size_t next_model =
        static_cast<std::size_t>(env_.epoch.load() / 2 + 1) % env_.models.size();
    env_.epoch.fetch_add(1);  // odd: both generations may answer
    const Clock::time_point t0 = Clock::now();
    Clock::time_point tm;
    {
      Scoped sw(log_, "registry.swap");
      std::shared_ptr<const rt::Model> model;
      {
        Scoped s(log_, "registry.swap_load");
        const std::vector<std::uint8_t> bytes = read_file(env_.artifacts[next_model]);
        std::optional<dpn::QuantizedNetwork> q;
        {
          Scoped d(log_, "codec.container_decode");
          q.emplace(dp::codec::decode_network(bytes));
        }
        Scoped c(log_, "runtime.model_create");
        model = rt::Model::create(std::move(*q));
      }
      tm = Clock::now();
      Scoped s(log_, "registry.swap_install");
      env_.registry->load(env_.model_name, model, env_.batcher);
    }
    const Clock::time_point t1 = Clock::now();
    env_.epoch.fetch_add(1);
    fresh_ = true;
    r_.swap_ms.push_back(us_between(t0, t1) / 1000.0);
    r_.swap_load_ms.push_back(us_between(t0, tm) / 1000.0);
    r_.swap_install_ms.push_back(us_between(tm, t1) / 1000.0);
  }

  ServeEnv& env_;
  const bool swaps_;
  SpanLog* log_;
  PassResult& r_;
  std::optional<sv::BatcherStats> prev_;
  bool fresh_ = false;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
};

struct ConnState {
  int fd = -1;
  sv::FdStream* stream = nullptr;
  std::vector<std::uint8_t> wbuf;
  std::size_t whead = 0;
  std::vector<std::uint8_t> rbuf;
  std::size_t rhead = 0;

  void flush() {
    while (whead < wbuf.size()) {
      const ssize_t n = stream->write_some(wbuf.data() + whead, wbuf.size() - whead);
      if (n <= 0) return;
      whead += static_cast<std::size_t>(n);
    }
    wbuf.clear();
    whead = 0;
  }
};

/// Keeps the convert replay's results observable.
volatile std::uint32_t convert_sink = 0;

struct Flight {
  Clock::time_point sched;
  std::uint32_t row = 0;
  std::uint64_t epoch = 0;
};

}  // namespace

ServeEnv::~ServeEnv() {
  conns.clear();
  if (server) server->stop();
  server.reset();
  registry.reset();
}

std::unique_ptr<ServeEnv> serve_raw_setup(std::shared_ptr<const Task> wbc, std::size_t conns) {
  auto env = std::make_unique<ServeEnv>();
  env->task = std::move(wbc);
  env->models.push_back(
      rt::Model::create(dpn::quantize(env->task->trained.net, Format{PositFormat{8, 0}})));
  env->expected.push_back(direct_readout(env->models[0], *env->task));
  return start(std::move(env), "wbc", conns);
}

std::unique_ptr<ServeEnv> serve_swap_setup(std::shared_ptr<const Task> mushroom,
                                           std::size_t conns, const std::string& work_dir) {
  auto env = std::make_unique<ServeEnv>();
  env->task = std::move(mushroom);
  env->compress = true;
  env->model_name = "mushroom";
  // posit<8,0> endpoints (the registry's swap guard pins them); the two
  // artifacts differ only in the interior layer's format.
  const Format p80{PositFormat{8, 0}};
  const std::vector<std::pair<const char*, Format>> interiors = {
      {"a", Format{PositFormat{6, 0}}}, {"b", Format{PositFormat{5, 1}}}};
  for (const auto& [tag, interior] : interiors) {
    const std::vector<Format> fmts = {p80, interior, p80};
    const std::string path = work_dir + "/mushroom-" + tag + ".dpnetz";
    dpn::save_quantized_compressed(path, dpn::quantize(env->task->trained.net, fmts));
    env->artifacts.push_back(path);
    env->models.push_back(rt::Model::load(path));
    env->expected.push_back(direct_readout(env->models.back(), *env->task));
  }
  const std::string name = env->model_name;
  return start(std::move(env), name, conns);
}

PassResult serve_pass(ServeEnv& env, const PassConfig& cfg, SpanLog* gen_log,
                      SpanLog* control_log) {
  using std::chrono::duration;
  using std::chrono::duration_cast;
  const Task& task = *env.task;
  const rt::Model& m0 = *env.models.front();
  const Format in_fmt = m0.input_format();
  const int in_width = in_fmt.total_bits();
  const int out_width = m0.output_format().total_bits();
  const std::size_t in_dim = m0.input_dim();
  const std::size_t out_dim = m0.output_dim();

  // The default 50 us timer slack would make every ppoll wake-up, and so
  // every scheduled send, up to 50 us late. Server threads keep the slack
  // they were created with; the control thread restores the default for
  // the dispatchers its swaps create.
  const int slack = ::prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  place_thread(Role::kGenerator);
  PassResult r;
  const auto total =
      static_cast<std::uint64_t>(std::llround((cfg.warmup_s + cfg.measure_s) * cfg.rate));
  const double interval_s = 1.0 / cfg.rate;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&](double s) {
    return t0 + duration_cast<Clock::duration>(duration<double>(s));
  };
  const Clock::time_point measure_start = at(cfg.warmup_s);
  const Clock::time_point send_end = at(static_cast<double>(total) * interval_s);
  const Clock::time_point drain_deadline = send_end + std::chrono::seconds(5);
  const std::vector<sv::ShardStats> shard0 = env.server->shard_stats();

  Control control(env, cfg.swap, control_log, r);
  bool control_failed = false;  // written by the control thread, read after join
  std::thread control_thread([&] {
    ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack), 0UL, 0UL, 0UL);
    place_thread(Role::kServer);
    try {
      control.run(measure_start, at(cfg.warmup_s + cfg.measure_s));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "control thread: %s\n", e.what());
      control_failed = true;
    }
  });

  std::vector<ConnState> conns(env.conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].stream = &env.conns[i];
    conns[i].fd = env.conns[i].fd();
  }
  std::vector<pollfd> pfds(conns.size());
  std::unordered_map<std::uint64_t, Flight> flights;
  flights.reserve(8192);
  std::vector<double> rtt_at_s;  // scheduled instant of each measured sample
  std::uint64_t measured_ok = 0;
  Clock::time_point last_reply = measure_start;  // of a measured request
  std::mt19937_64 rng(cfg.seed);
  std::vector<std::uint32_t> pats(in_dim);
  sv::Frame req;
  req.type = sv::FrameType::kRequest;
  if (env.compress) {
    req.version = sv::kProtocolV4;
    req.payload_encoding = sv::kPayloadEncodingCodec;
    req.model = env.model_name;
  } else if (!env.model_name.empty()) {
    req.version = sv::kProtocolV2;
    req.model = env.model_name;
  }

  // Every failure is reported on stderr with what reproduces it (the first
  // few per pass).
  std::uint64_t reported = 0;
  const auto report = [&](const char* what, const sv::Frame& f, const Flight* fl) {
    if (++reported > 5) return;
    std::fprintf(stderr,
                 "serve: %s: id %llu status %s row %lld epoch at send %lld, now %llu, "
                 "%zu payload words\n",
                 what, static_cast<unsigned long long>(f.request_id), sv::to_string(f.status),
                 fl ? static_cast<long long>(fl->row) : -1LL,
                 fl ? static_cast<long long>(fl->epoch) : -1LL,
                 static_cast<unsigned long long>(env.epoch.load()), f.payload.size());
  };
  const auto handle = [&](const sv::Frame& f, Clock::time_point got) {
    const auto it = flights.find(f.request_id);
    if (it == flights.end()) {
      ++r.mismatch;  // an id never sent, or answered twice
      report("unknown request id", f, nullptr);
      return;
    }
    const Flight fl = it->second;
    flights.erase(it);
    const bool measured = fl.sched >= measure_start;
    if (measured) {
      last_reply = std::max(last_reply, got);
      r.rtt_us.push_back(us_between(fl.sched, got));
      rtt_at_s.push_back(seconds_between(measure_start, fl.sched));
    }
    if (f.status != sv::Status::kOk) {
      ++r.bad_status;
      report("non-kOk reply", f, &fl);
      return;
    }
    std::vector<std::uint32_t> decoded;
    std::span<const std::uint32_t> bits = f.payload;
    if (f.payload_encoding == sv::kPayloadEncodingCodec) {
      try {
        Scoped s(gen_log, "codec.payload_decode");
        decoded = dp::codec::decode_payload(f.payload, out_width, out_dim);
      } catch (const std::exception& e) {
        ++r.mismatch;
        report(e.what(), f, &fl);
        return;
      }
      bits = decoded;
    }
    // Generations that may have answered: every one live between send and
    // receipt (a swap in progress at either end admits both neighbours).
    const std::uint64_t lo = fl.epoch / 2;
    const std::uint64_t hi = (env.epoch.load() + 1) / 2;
    for (std::uint64_t g = lo; g <= hi && g < lo + env.models.size(); ++g) {
      const std::size_t m = static_cast<std::size_t>(g % env.models.size());
      const std::uint32_t* want = env.expected[m].data() + fl.row * out_dim;
      if (bits.size() == out_dim && std::equal(bits.begin(), bits.end(), want)) {
        ++r.ok;
        ++r.served_by[m % 2];
        if (measured) ++measured_ok;
        return;
      }
    }
    ++r.mismatch;
    report("readout matches no live model generation", f, &fl);
  };

  std::uint64_t next = 0;
  std::vector<std::uint8_t> chunk(64 * 1024);
  try {
    for (;;) {
      Clock::time_point now = Clock::now();
      while (next < total) {
        const Clock::time_point sched = at(static_cast<double>(next) * interval_s);
        if (sched > now) break;
        const auto row = static_cast<std::uint32_t>(rng() % task.rows());
        const auto x = task.row(row);
        // Read before the frame leaves: the server may route it at once,
        // and a swap finishing in between must not hide the generation
        // that answered.
        const std::uint64_t epoch = env.epoch.load();
        {
          Scoped s(gen_log, "numeric.from_double");
          for (std::size_t i = 0; i < in_dim; ++i) pats[i] = in_fmt.from_double(x[i]);
        }
        if (env.compress) {
          Scoped s(gen_log, "codec.payload_encode");
          req.payload = dp::codec::encode_payload(pats, in_width);
        } else {
          req.payload = pats;
        }
        r.raw_bytes += in_dim * 4;
        r.coded_bytes += req.payload.size() * 4;
        req.request_id = next + 1;
        std::vector<std::uint8_t> bytes;
        {
          Scoped s(gen_log, "protocol.encode");
          bytes = sv::encode(req);
        }
        ConnState& c = conns[next % conns.size()];
        c.wbuf.insert(c.wbuf.end(), bytes.begin(), bytes.end());
        c.flush();
        now = Clock::now();
        if (sched >= measure_start) r.lag_us.push_back(us_between(sched, now));
        flights.emplace(req.request_id, Flight{sched, row, epoch});
        ++r.attempted;
        ++next;
      }
      if (next >= total && flights.empty()) break;
      if (next >= total && now >= drain_deadline) {
        r.lost += flights.size();
        break;
      }
      for (std::size_t i = 0; i < conns.size(); ++i) {
        const short events = POLLIN | (conns[i].wbuf.empty() ? 0 : POLLOUT);
        pfds[i] = pollfd{conns[i].fd, events, 0};
      }
      const Clock::time_point wake =
          next < total ? at(static_cast<double>(next) * interval_s)
                       : std::min(drain_deadline, now + std::chrono::milliseconds(50));
      const auto ns = std::max<long long>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
      timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
      if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
      for (std::size_t i = 0; i < conns.size(); ++i) {
        ConnState& c = conns[i];
        if ((pfds[i].revents & POLLOUT) != 0) c.flush();
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        for (;;) {
          const ssize_t n = c.stream->read_some(chunk.data(), chunk.size());
          if (n == 0) throw sv::TransportError("server closed a connection");
          if (n < 0) break;
          c.rbuf.insert(c.rbuf.end(), chunk.begin(), chunk.begin() + n);
        }
        const Clock::time_point got = Clock::now();
        for (;;) {
          std::size_t consumed = 0;
          std::optional<sv::Frame> f;
          {
            Scoped s(gen_log, "protocol.extract");
            f = sv::try_extract(
                std::span<const std::uint8_t>(c.rbuf.data() + c.rhead, c.rbuf.size() - c.rhead),
                consumed);
          }
          if (!f) break;
          c.rhead += consumed;
          handle(*f, got);
        }
        if (c.rhead == c.rbuf.size()) {
          c.rbuf.clear();
          c.rhead = 0;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "generator: %s\n", e.what());
    r.lost += flights.size() + (total - next);
    r.attempted += total - next;
  }
  ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack), 0UL, 0UL, 0UL);
  place_thread(Role::kServer);
  control.stop();
  control_thread.join();
  control.read();
  if (control_failed) ++r.control_errors;

  const std::vector<sv::ShardStats> shard1 = env.server->shard_stats();
  for (std::size_t i = 0; i < shard1.size(); ++i) {
    sv::ShardStats d;
    d.connections = shard1[i].connections - shard0[i].connections;
    d.frames_in = shard1[i].frames_in - shard0[i].frames_in;
    d.frames_out = shard1[i].frames_out - shard0[i].frames_out;
    d.dropped = shard1[i].dropped - shard0[i].dropped;
    d.overloaded = shard1[i].overloaded - shard0[i].overloaded;
    d.bad_frames = shard1[i].bad_frames - shard0[i].bad_frames;
    d.bad_requests = shard1[i].bad_requests - shard0[i].bad_requests;
    r.shards.push_back(d);
  }

  // Percentiles per window of scheduled time; the median over windows is
  // what the end-to-end metrics report.
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(cfg.measure_s / cfg.window_s + 0.5)));
  std::vector<std::vector<double>> per(windows);
  for (std::size_t i = 0; i < r.rtt_us.size(); ++i) {
    const auto w = static_cast<std::size_t>(rtt_at_s[i] / cfg.window_s);
    per[std::min(w, windows - 1)].push_back(r.rtt_us[i]);
  }
  for (std::vector<double>& w : per) {
    if (w.empty()) continue;
    r.win_p50_us.push_back(pct(w, 50));
    r.win_p90_us.push_back(pct(w, 90));
    r.win_p99_us.push_back(pct(w, 99));
  }
  r.measured = r.rtt_us.size();
  // Replies per second from the start of the measured schedule to the last
  // measured reply, so a backlog that drains late lowers it.
  r.goodput = static_cast<double>(measured_ok) / seconds_between(measure_start, last_reply);
  return r;
}

std::vector<double> forward_replay(const ServeEnv& env, std::size_t batch, std::size_t reps,
                                   std::uint64_t seed, SpanLog* log) {
  const Task& task = *env.task;
  rt::Session s(env.models.front(), one_thread());
  std::mt19937_64 rng(seed);
  std::vector<double> flat(batch * task.width());
  std::vector<std::uint32_t> out(batch * env.models.front()->output_dim());
  const char* name = intern("runtime.forward_b" + std::to_string(batch));
  std::vector<double> us;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t b = 0; b < batch; ++b) {
      const auto row = task.row(static_cast<std::size_t>(rng() % task.rows()));
      std::copy(row.begin(), row.end(),
                flat.begin() + static_cast<std::ptrdiff_t>(b * task.width()));
    }
    const Clock::time_point t0 = Clock::now();
    {
      Scoped sp(log, name);
      s.forward_bits_into(rt::BatchView(flat, task.width()), out);
    }
    us.push_back(us_between(t0, Clock::now()));
  }
  return us;
}

double convert_replay(const ServeEnv& env, std::size_t reps, SpanLog* log) {
  const dpn::QuantizedNetwork& net = env.models.front()->network();
  std::uint32_t sink = 0;
  double calls = 0;
  double ns = 0;
  for (std::size_t li = 1; li < net.layers.size(); ++li) {
    const Format& from = net.layer_format(li - 1);
    const Format& to = net.layer_format(li);
    if (from == to) continue;
    const std::uint32_t patterns = 1u << from.total_bits();
    const Clock::time_point t0 = Clock::now();
    {
      Scoped s(log, "numeric.convert");
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::uint32_t p = 0; p < patterns; ++p) sink += dp::num::convert(p, from, to);
      }
    }
    ns += us_between(t0, Clock::now()) * 1000.0;
    calls += static_cast<double>(reps) * patterns;
  }
  convert_sink = sink;
  return calls > 0 ? ns / calls : 0;
}

}  // namespace perfbench
