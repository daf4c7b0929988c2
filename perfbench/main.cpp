// The repository benchmark. One process runs one workload:
//
//   perfbench --workload grid-sweep|serve-raw|serve-swap-v4 --seed N --seconds S
//             --trace 0|1 --golden perfbench/grid_golden.txt --work-dir DIR
//
// --trace 0 measures the workload untraced and reports the end-to-end
// metrics. --trace 1 is the separate traced run: it runs every workload once
// untraced and once with spans recorded around each call into a layer, so
// every per-layer metric comes from the workload that exercises its layer,
// and reports the per-layer metrics, the unexplained remainders and the
// tracing overhead. The spans are written to DIR/trace.jsonl.
//
// Human-readable lines come first; the last line of stdout is the JSON
// result. The exit status is 0 whenever a result was printed (correctness
// is reported in it), 2 on bad arguments and 1 on a set-up error.
//
// Regenerate the pinned grid accuracies with --emit-golden.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

// Fixed workload parameters; changing any of them changes the benchmark.
// Offered rates. Sends go round-robin over the connections, so each shard's
// batcher lane sees one request every 2/rate s; both rates keep that gap
// well above the 200 us max_wait, so every request waits out max_wait alone
// and the wait distribution has one mode (a gap near max_wait would split
// it between "flushed alone" and "joined a batch").
constexpr double kRawRate = 6000;       // serve-raw offered req/s
constexpr double kSwapRate = 4000;      // serve-swap-v4 offered req/s
constexpr double kWarmupS = 0.5;
constexpr double kWindowS = 1.0;
constexpr double kLatencyLimitUs = 2000;  // p99 limit of the capacity ladder
constexpr double kProbeNominalUs = 25;    // grid-sweep times are scaled to this probe time
constexpr double kLadder[] = {5000, 10000, 20000, 30000, 40000, 60000, 80000};

/// Whether another set-up should run: at least 3, and while they have
/// taken under 2 s, up to 15, so a sub-second set-up is still the median
/// of many. setup_s is the median.
bool more_setups(const std::vector<double>& setup_s) {
  double spent = 0;
  for (const double s : setup_s) spent += s;
  return setup_s.size() < 3 || (spent < 2.0 && setup_s.size() < 15);
}

void print_setups(const std::vector<double>& setup_s) {
  std::printf("set-up times s:");
  for (const double s : setup_s) std::printf(" %.3f", s);
  std::printf("  (setup_s is their median)\n");
}

/// Generator connections: nproc, clamped to [2, 4] and even, so both shards
/// hold the same number (a 1-core host still gets one per shard).
std::size_t conns_for_host() {
  const std::size_t n = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 2, 4);
  return n - n % 2;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string golden;
  std::string work_dir = ".";
  bool emit_golden = false;
};

struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

const char* env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "<unset>" : v;
}

void print_host() {
  std::printf("# host nproc=%u build=%s compiler=\"%s\" DP_FORCE_SCALAR_KERNEL=%s "
              "DP_FORCE_STEP_PATH=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              env_or_unset("DP_FORCE_SCALAR_KERNEL"), env_or_unset("DP_FORCE_STEP_PATH"));
}

void print_models(const char* workload, const ServeEnv& env) {
  for (std::size_t i = 0; i < env.models.size(); ++i) {
    const dp::runtime::Model& m = *env.models[i];
    std::string fmts;
    for (std::size_t li = 0; li < m.network().layers.size(); ++li) {
      if (li != 0) fmts += ",";
      fmts += m.network().layer_format(li).name();
    }
    std::printf("# model %s[%zu] formats=%s kernel=%s\n", workload, i, fmts.c_str(),
                m.kernel_name());
  }
}

void print_kernels(const SweepResult& s) {
  std::printf("# model grid-sweep kernels:");
  for (const auto& [name, n] : s.kernel_evals) std::printf(" %s=%zu", name.c_str(), n);
  std::printf(" (evaluations per sweep)\n");
}

double fail_frac(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

/// Tail percentile printed with its sample count.
void print_dist(const char* name, const std::vector<double>& v, const char* unit) {
  std::printf("%-22s p50 %.1f  p99 %.1f  max %.1f %s  (n=%zu)\n", name, pct(v, 50), pct(v, 99),
              pct(v, 100), unit, v.size());
}

// --- untraced runs: end-to-end metrics ---------------------------------------

Outcome run_grid(const Args& a) {
  std::vector<double> setup_s;
  std::optional<GridSetup> g;
  while (more_setups(setup_s)) {
    const Clock::time_point t0 = Clock::now();
    g.emplace(grid_setup(a.golden, nullptr));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  print_setups(setup_s);
  std::vector<SweepResult> sweeps;
  const Clock::time_point start = Clock::now();
  double spent = 0;
  // Sweep k runs pinned to the k-th CPU, so every evaluation's repeats
  // sample every core: the host's cores run at different speeds at the
  // same moment, and a thread the scheduler leaves on a slow core would
  // make the whole run slow.
  do {
    pin_to_cpu(sweeps.size());
    sweeps.push_back(grid_sweep(*g, a.seed * 1000003 + sweeps.size(), nullptr));
    spent = seconds_between(start, Clock::now());
  } while (spent + 0.5 * spent / static_cast<double>(sweeps.size()) < a.seconds);
  unpin();

  // The host's single-thread speed swings by several times within a second
  // (other tenants share its cores), so each evaluation's time is scaled by
  // the host-speed probe taken around it: scaled = time * kProbeNominalUs /
  // probe. The probe calls nothing in the library, so a library change
  // moves the scaled time as it moves the raw time. Each evaluation then
  // reports the median of its scaled repeats.
  Outcome o;
  std::vector<std::vector<double>> scaled(g->items.size());
  std::vector<double> all_evals, probes;
  double busy = 0;
  for (const SweepResult& s : sweeps) {
    for (std::size_t i = 0; i < s.eval_us.size(); ++i) {
      scaled[s.item[i]].push_back(s.eval_us[i] * kProbeNominalUs / s.probe_us[i]);
      busy += s.eval_us[i];
    }
    all_evals.insert(all_evals.end(), s.eval_us.begin(), s.eval_us.end());
    probes.insert(probes.end(), s.probe_us.begin(), s.probe_us.end());
    o.attempted += s.evals;
    o.failed += s.failed;
  }
  std::vector<double> typical;  // per evaluation: median scaled time
  double sweep_us = 0;
  for (const std::vector<double>& v : scaled) {
    typical.push_back(median(v));
    sweep_us += typical.back();
  }
  const double rate = static_cast<double>(typical.size()) / (sweep_us / 1e6);
  print_kernels(sweeps.front());
  std::printf("grid-sweep: %zu sweeps of %zu evaluations in %.2f s (step checks included)\n",
              sweeps.size(), g->items.size(), spent);
  print_dist("evaluation time", all_evals, "us");
  print_dist("host-speed probe", probes, "us");
  print_dist("scaled evaluation", typical, "us");
  std::printf("grid_evals_per_s = %.3f evaluations/s at probe speed %.0f us (median of %zu per "
              "evaluation); unscaled over all evaluations %.3f evaluations/s\n",
              rate, kProbeNominalUs, sweeps.size(),
              static_cast<double>(all_evals.size()) / (busy / 1e6));
  std::printf("fail_frac = %.6g (%llu of %llu evaluations)\n", fail_frac(o.failed, o.attempted),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
  o.metrics.add("setup_s", median(setup_s), "s");
  o.metrics.add("latency_p50_us", median(typical), "us");
  o.metrics.add("throughput_per_s", rate, "1/s");
  return o;
}

Outcome run_serve(const Args& a, bool swap) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeEnv> env;
  while (more_setups(setup_s)) {
    env.reset();
    const Clock::time_point t0 = Clock::now();
    auto task = std::make_shared<const Task>(
        train_task(swap ? dp::core::mushroom_task() : dp::core::wbc_task(), nullptr));
    env = swap ? serve_swap_setup(std::move(task), conns_for_host(), a.work_dir)
               : serve_raw_setup(std::move(task), conns_for_host());
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  print_setups(setup_s);
  print_models(a.workload.c_str(), *env);
  PassConfig cfg;
  cfg.rate = swap ? kSwapRate : kRawRate;
  cfg.warmup_s = kWarmupS;
  cfg.measure_s = a.seconds;
  cfg.window_s = kWindowS;
  cfg.seed = a.seed;
  cfg.swap = swap;
  const PassResult p = serve_pass(*env, cfg, nullptr, nullptr);

  Outcome o;
  o.attempted = p.attempted;
  o.failed = p.failed();
  std::printf("%s: open loop, 1 generator thread, %zu connections, %.0f req/s, %.1f s measured "
              "after %.1f s warm-up\n",
              a.workload.c_str(), env->conns.size(), cfg.rate, cfg.measure_s, cfg.warmup_s);
  std::printf("rtt_p50_us = %.2f us (median of %zu one-second windows; n=%llu)\n",
              median(p.win_p50_us), p.win_p50_us.size(),
              static_cast<unsigned long long>(p.measured));
  std::printf("rtt_p90_us = %.2f us (median of %zu one-second windows; n=%llu)\n",
              median(p.win_p90_us), p.win_p90_us.size(),
              static_cast<unsigned long long>(p.measured));
  std::printf("rtt_p99_us = %.2f us (median of %zu one-second windows; n=%llu)\n",
              median(p.win_p99_us), p.win_p99_us.size(),
              static_cast<unsigned long long>(p.measured));
  std::printf("window p50/p99 us:");
  for (std::size_t i = 0; i < p.win_p50_us.size(); ++i) {
    std::printf(" %.0f/%.0f", p.win_p50_us[i], p.win_p99_us[i]);
  }
  std::printf("\n");
  print_dist("rtt (whole window)", p.rtt_us, "us");
  print_dist("generator lag", p.lag_us, "us");
  if (swap) {
    std::printf("swap_p50_ms = %.4f ms (n=%zu swaps; served by artifact a=%llu b=%llu)\n",
                median(p.swap_ms), p.swap_ms.size(),
                static_cast<unsigned long long>(p.served_by[0]),
                static_cast<unsigned long long>(p.served_by[1]));
  }
  std::printf("goodput = %.1f verified replies/s\n", p.goodput);
  std::printf("fail_frac = %.6g (lost %llu, non-kOk %llu, mismatched %llu of %llu attempted)\n",
              fail_frac(o.failed, o.attempted), static_cast<unsigned long long>(p.lost),
              static_cast<unsigned long long>(p.bad_status),
              static_cast<unsigned long long>(p.mismatch),
              static_cast<unsigned long long>(p.attempted));
  o.metrics.add("setup_s", median(setup_s), "s");
  o.metrics.add("latency_p50_us", median(p.win_p50_us), "us");
  o.metrics.add("throughput_per_s", p.goodput, "1/s");
  return o;
}

// --- the traced run: per-layer metrics ---------------------------------------

double mean_of(const std::map<std::string, SpanTotals>& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() || it->second.count == 0 ? 0 : it->second.total_us / it->second.count;
}
double total_of(const std::map<std::string, SpanTotals>& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : it->second.total_us;
}
double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Highest ladder rate whose p99 stays within the limit with no failure
/// and no growing backlog (goodput keeps up with the offered rate).
double capacity(ServeEnv& env, std::uint64_t seed) {
  double best = 0;
  for (const double rate : kLadder) {
    PassConfig cfg;
    cfg.rate = rate;
    cfg.warmup_s = 0.2;
    cfg.measure_s = 0.8;
    cfg.window_s = 0.8;
    cfg.seed = seed;
    const PassResult p = serve_pass(env, cfg, nullptr, nullptr);
    const bool held = p.failed() == 0 && pct(p.rtt_us, 99) <= kLatencyLimitUs &&
                      p.goodput >= 0.97 * rate;
    std::printf("capacity ladder: %.0f req/s  p99 %.1f us  goodput %.1f/s  failed %llu -> %s\n",
                rate, pct(p.rtt_us, 99), p.goodput,
                static_cast<unsigned long long>(p.failed()), held ? "held" : "not held");
    if (!held) break;
    best = rate;
  }
  return best;
}

Outcome run_traced(const Args& a) {
  Outcome o;
  Metrics& m = o.metrics;
  SpanLog setup_log("setup", true), grid_log("grid", true), replay_log("replay", true);
  SpanLog raw_gen("serve-raw.generator", true), raw_ctl("serve-raw.control", true);
  SpanLog swap_gen("serve-swap-v4.generator", true), swap_ctl("serve-swap-v4.control", true);
  const Clock::time_point epoch = Clock::now();
  const double pass_s = std::max(1.0, a.seconds / 5);

  // grid-sweep: a warm-up sweep, then one untraced and one traced sweep in
  // the same seeded order.
  const GridSetup g = grid_setup(a.golden, &setup_log);
  const SweepResult warm = grid_sweep(g, a.seed, nullptr);
  const SweepResult base = grid_sweep(g, a.seed, nullptr);
  const SweepResult tr = grid_sweep(g, a.seed, &grid_log);
  print_kernels(tr);
  for (const SweepResult* s : {&warm, &base, &tr}) {
    o.attempted += s->evals;
    o.failed += s->failed;
  }
  const auto setup_t = aggregate({&setup_log});
  for (const Task& t : g.tasks) {
    const std::string& name = t.trained.spec.name;
    m.add("nn.train_s." + name, total_of(setup_t, "nn.train." + name) / 1e6, "s");
  }
  const auto grid_t = aggregate({&grid_log});
  const double grid_wall_us = tr.wall_s * 1e6;
  const double grid_self_us = total_self_us(grid_t);
  std::printf("check grid-sweep: spans %.0f us of %.0f us wall (%s)\n", grid_self_us,
              grid_wall_us, grid_self_us <= grid_wall_us ? "ok" : "SPANS EXCEED WALL");
  m.add("nn.quantize_ms", mean_of(grid_t, "nn.quantize") / 1e3, "ms");
  m.add("runtime.model_create_ms", mean_of(grid_t, "runtime.model_create") / 1e3, "ms");
  m.add("runtime.session_create_us", mean_of(grid_t, "runtime.session_create"), "us");
  for (const Task& t : g.tasks) {
    const std::string& name = t.trained.spec.name;
    m.add("runtime.accuracy_ms." + name, mean_of(grid_t, "runtime.accuracy." + name) / 1e3, "ms");
  }
  m.add("emac.step_mmacs_per_s", ratio(tr.step_macs, total_of(grid_t, "emac.step")), "MMAC/s");
  for (const char* kind : {"avx2", "scalar-blocked"}) {
    const auto it = tr.kernel_us.find(kind);
    m.add(std::string("emac.time_share.") + kind,
          it == tr.kernel_us.end() ? 0 : it->second / grid_wall_us, "fraction");
  }
  m.add("grid.unexplained_ms", (grid_wall_us - grid_self_us) / 1e3, "ms");
  double base_busy = 0, tr_busy = 0;
  for (const double us : base.eval_us) base_busy += us;
  for (const double us : tr.eval_us) tr_busy += us;
  const double grid_overhead = ratio(tr_busy, base_busy) - 1;

  const KernelReplay kr = grid_kernel_replay(g, a.seed, &replay_log);
  for (const char* kind : {"avx2", "scalar-blocked"}) {
    const auto macs = kr.macs.find(kind);
    const auto us = kr.matmul_us.find(kind);
    m.add(std::string("emac.matmul_mmacs_per_s.") + kind,
          macs == kr.macs.end() ? 0 : ratio(macs->second, us->second), "MMAC/s");
  }
  m.add("emac.pack_acts_ns_per_elem", ratio(kr.pack_acts_us * 1e3, kr.pack_acts_elems), "ns");

  const auto task_named = [&g](const char* name) {
    for (const Task& t : g.tasks) {
      if (t.trained.spec.name == name) return std::make_shared<const Task>(t);
    }
    throw std::logic_error("missing task");
  };
  PassConfig cfg;
  cfg.warmup_s = 0.3;
  cfg.measure_s = pass_s;
  cfg.window_s = std::min(kWindowS, pass_s);
  cfg.seed = a.seed;

  // serve-raw.
  auto raw = serve_raw_setup(task_named("wbc"), conns_for_host());
  print_models("serve-raw", *raw);
  cfg.rate = kRawRate;
  const PassResult raw_base = serve_pass(*raw, cfg, nullptr, nullptr);
  const PassResult raw_tr = serve_pass(*raw, cfg, &raw_gen, &raw_ctl);
  const std::vector<double> fwd1 = forward_replay(*raw, 1, 2000, a.seed, &replay_log);
  const std::vector<double> fwd16 = forward_replay(*raw, 16, 500, a.seed, &replay_log);
  const double cap = capacity(*raw, a.seed);
  const auto raw_in_dim = static_cast<double>(raw->task->width());
  raw.reset();

  // serve-swap-v4.
  auto swp = serve_swap_setup(task_named("mushroom"), conns_for_host(), a.work_dir);
  print_models("serve-swap-v4", *swp);
  cfg.rate = kSwapRate;
  cfg.swap = true;
  const PassResult swap_base = serve_pass(*swp, cfg, nullptr, nullptr);
  const PassResult swap_tr = serve_pass(*swp, cfg, &swap_gen, &swap_ctl);
  const double convert_ns = convert_replay(*swp, 64, &replay_log);
  swp.reset();

  for (const PassResult* p : {&raw_base, &raw_tr, &swap_base, &swap_tr}) {
    o.attempted += p->attempted;
    o.failed += p->failed();
  }

  print_dist("serve-raw rtt", raw_tr.rtt_us, "us");
  print_dist("serve-swap-v4 rtt", swap_tr.rtt_us, "us");
  print_dist("generator lag", raw_tr.lag_us, "us");
  const auto raw_t = aggregate({&raw_gen});
  const auto swap_t = aggregate({&swap_gen});
  const auto swap_ctl_t = aggregate({&swap_ctl});
  const double raw_reqs = static_cast<double>(raw_tr.attempted);
  const double raw_replies = static_cast<double>(raw_tr.ok + raw_tr.bad_status + raw_tr.mismatch);
  m.add("numeric.from_double_ns",
        ratio(total_of(raw_t, "numeric.from_double") * 1e3, raw_reqs * raw_in_dim), "ns");
  m.add("numeric.convert_ns", convert_ns, "ns");
  m.add("codec.payload_encode_us", mean_of(swap_t, "codec.payload_encode"), "us");
  m.add("codec.payload_decode_us", mean_of(swap_t, "codec.payload_decode"), "us");
  m.add("codec.payload_ratio",
        ratio(static_cast<double>(swap_tr.raw_bytes), static_cast<double>(swap_tr.coded_bytes)),
        "ratio");
  m.add("codec.container_decode_ms", mean_of(swap_ctl_t, "codec.container_decode") / 1e3, "ms");
  const double b1 = median(fwd1), b16 = median(fwd16);
  m.add("runtime.forward_us.b1", b1, "us");
  m.add("runtime.forward_us.b16", b16, "us");
  const double enc_ns = ratio(total_of(raw_t, "protocol.encode") * 1e3, raw_reqs);
  const double ext_ns = ratio(total_of(raw_t, "protocol.extract") * 1e3, raw_replies);
  m.add("protocol.encode_ns", enc_ns, "ns");
  m.add("protocol.extract_ns", ext_ns, "ns");
  const double wait50 = median(raw_tr.wait_p50_us);
  const double occupancy =
      ratio(static_cast<double>(raw_tr.completed), static_cast<double>(raw_tr.batches));
  m.add("batcher.wait_p50_us", wait50, "us");
  m.add("batcher.wait_p99_us", median(raw_tr.wait_p99_us), "us");
  m.add("batcher.occupancy", occupancy, "rows/batch");
  m.add("batcher.batches", static_cast<double>(raw_tr.batches + swap_tr.batches), "count");
  m.add("batcher.deadline_exceeded",
        static_cast<double>(raw_tr.deadline_exceeded + swap_tr.deadline_exceeded), "count");
  m.add("batcher.rejected", static_cast<double>(raw_tr.rejected + swap_tr.rejected), "count");
  dp::serve::ShardStats sum;
  double skew = 0;
  for (const PassResult* p : {&raw_tr, &swap_tr}) {
    double lo = 0, hi = 0;
    for (std::size_t i = 0; i < p->shards.size(); ++i) {
      const dp::serve::ShardStats& s = p->shards[i];
      sum.frames_in += s.frames_in;
      sum.frames_out += s.frames_out;
      sum.dropped += s.dropped;
      sum.overloaded += s.overloaded;
      const auto f = static_cast<double>(s.frames_in);
      lo = i == 0 ? f : std::min(lo, f);
      hi = std::max(hi, f);
    }
    skew = std::max(skew, ratio(hi, lo));
  }
  m.add("server.frames_in", static_cast<double>(sum.frames_in), "count");
  m.add("server.frames_out", static_cast<double>(sum.frames_out), "count");
  m.add("server.dropped", static_cast<double>(sum.dropped), "count");
  m.add("server.overloaded", static_cast<double>(sum.overloaded), "count");
  m.add("server.shard_skew", skew, "max/min");
  m.add("registry.swap_load_ms", median(swap_tr.swap_load_ms), "ms");
  m.add("registry.swap_install_ms", median(swap_tr.swap_install_ms), "ms");
  std::vector<double> lag = raw_tr.lag_us;
  lag.insert(lag.end(), swap_tr.lag_us.begin(), swap_tr.lag_us.end());
  const double lag50 = pct(lag, 50);
  m.add("gen.lag_p50_us", lag50, "us");
  m.add("gen.lag_p99_us", pct(lag, 99), "us");
  // serve-raw's median round trip minus the blocking steps of a median
  // request: generator lateness, client encode, queue wait, one micro-batch
  // of the observed size (interpolated between the b1 and b16 replays), and
  // reply extraction. What remains is the wire, the event loops and
  // scheduling.
  const double fwd_at_occ = b1 + (b16 - b1) * std::clamp((occupancy - 1) / 15, 0.0, 1.0);
  const double client_us =
      ratio(total_of(raw_t, "numeric.from_double"), raw_reqs) + enc_ns / 1e3 + ext_ns / 1e3;
  const double raw_p50 = median(raw_tr.win_p50_us);
  const double explained_us = pct(raw_tr.lag_us, 50) + client_us + wait50 + fwd_at_occ;
  m.add("serve.unexplained_us", raw_p50 - explained_us, "us");
  std::printf("check serve-raw: rtt p50 %.1f us = lag %.1f + client %.1f + queue wait %.1f + "
              "forward %.1f + remainder %.1f\n",
              raw_p50, pct(raw_tr.lag_us, 50), client_us, wait50, fwd_at_occ,
              raw_p50 - explained_us);
  m.add("serve.capacity_rps", cap, "1/s");
  // The tail round trip moves with the host's CPU steal from run to run,
  // so it is reported here, unbounded, rather than as an end-to-end metric.
  m.add("serve.rtt_p90_us.serve-raw", median(raw_tr.win_p90_us), "us");
  m.add("serve.rtt_p99_us.serve-raw", median(raw_tr.win_p99_us), "us");
  m.add("serve.rtt_p90_us.serve-swap-v4", median(swap_tr.win_p90_us), "us");
  m.add("serve.rtt_p99_us.serve-swap-v4", median(swap_tr.win_p99_us), "us");
  m.add("registry.swap_p50_ms", median(swap_tr.swap_ms), "ms");
  m.add("trace.overhead_frac.grid-sweep", grid_overhead, "fraction");
  m.add("trace.overhead_frac.serve-raw",
        ratio(median(raw_tr.win_p50_us), median(raw_base.win_p50_us)) - 1, "fraction");
  m.add("trace.overhead_frac.serve-swap-v4",
        ratio(median(swap_tr.win_p50_us), median(swap_base.win_p50_us)) - 1, "fraction");

  const std::string path = a.work_dir + "/trace.jsonl";
  write_spans(path, {&setup_log, &grid_log, &replay_log, &raw_gen, &raw_ctl, &swap_gen, &swap_ctl},
              epoch);
  std::printf("spans written to %s\n", path.c_str());
  return o;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const auto val = [&](const char* flag) -> const char* {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc ? argv[++i] : nullptr;
    };
    if (const char* v = val("--workload")) a.workload = v;
    else if (const char* v = val("--seed")) a.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = val("--seconds")) a.seconds = std::atof(v);
    else if (const char* v = val("--trace")) a.trace = std::strcmp(v, "0") != 0;
    else if (const char* v = val("--golden")) a.golden = v;
    else if (const char* v = val("--work-dir")) a.work_dir = v;
    else if (std::strcmp(argv[i], "--emit-golden") == 0) a.emit_golden = true;
    else return false;
  }
  if (a.emit_golden) return true;
  return (a.workload == "grid-sweep" || a.workload == "serve-raw" ||
          a.workload == "serve-swap-v4") &&
         a.seconds > 0 && a.seconds <= 600 && !a.golden.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload grid-sweep|serve-raw|serve-swap-v4 --seed N "
                 "--seconds S --trace 0|1 --golden FILE [--work-dir DIR]\n"
                 "       perfbench --emit-golden\n");
    return 2;
  }
  try {
    if (a.emit_golden) {
      grid_emit_golden(grid_setup("", nullptr));
      return 0;
    }
    print_host();
    const Outcome o = a.trace ? run_traced(a)
                      : a.workload == "grid-sweep" ? run_grid(a)
                                                   : run_serve(a, a.workload == "serve-swap-v4");
    o.metrics.print_human();
    o.metrics.print_json(o.failed == 0, o.attempted, o.failed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
