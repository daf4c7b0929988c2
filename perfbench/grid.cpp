// grid-sweep: the paper's Table II / Fig. 9 evaluation as a workload.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "data/dataset.hpp"
#include "emac/emac.hpp"
#include "emac/kernel.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "runtime/batch.hpp"
#include "runtime/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dpn = dp::nn;
namespace rt = dp::runtime;

const char* intern(const std::string& s) {
  static std::mutex m;
  static std::set<std::string> names;
  const std::lock_guard<std::mutex> lk(m);
  return names.insert(s).first->c_str();
}

namespace {

dp::data::Dataset generate(const dp::core::TaskSpec& spec) {
  if (spec.name == "iris") return dp::data::make_iris(spec.data_seed);
  if (spec.name == "wbc") return dp::data::make_wbc(spec.data_seed);
  if (spec.name == "mushroom") return dp::data::make_mushroom(spec.data_seed);
  throw std::invalid_argument("unknown task: " + spec.name);
}

/// Rows sampled per evaluation for the step-oracle cross-check.
constexpr std::size_t kStepRows = 8;

void shuffle(std::vector<std::size_t>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng() % i)]);
  }
}

/// Cross-check `rows` of the blocked path against ForwardPath::kStep.
/// Returns the number of mismatching rows.
std::uint64_t step_check(const Task& task, const rt::Model& model, rt::Session& session,
                         std::mt19937_64& rng, SpanLog* log, double& step_macs) {
  std::vector<double> flat;
  std::vector<std::size_t> picked;
  for (std::size_t s = 0; s < kStepRows; ++s) {
    const std::size_t r = static_cast<std::size_t>(rng() % task.rows());
    picked.push_back(r);
    const auto row = task.row(r);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const rt::BatchResult<std::uint32_t> fast =
      session.forward_bits(rt::BatchView(flat, task.width()));
  rt::SessionOptions one;
  one.num_threads = 1;
  rt::Session step(rt::Model::create(dpn::QuantizedNetwork(model.network()),
                                     rt::ForwardPath::kStep),
                   one);
  std::uint64_t bad = 0;
  for (std::size_t s = 0; s < picked.size(); ++s) {
    std::span<const std::uint32_t> bits;
    {
      Scoped sp(log, "emac.step");
      bits = step.forward_bits(task.row(picked[s]));
    }
    const auto want = fast.row(s);
    if (!std::equal(bits.begin(), bits.end(), want.begin(), want.end())) ++bad;
  }
  step_macs += static_cast<double>(picked.size() * model.macs_per_inference());
  return bad;
}

/// Keeps the probe's result observable.
volatile std::uint64_t probe_sink = 0;

}  // namespace

double host_speed_probe_us() {
  static const std::vector<std::uint64_t> a(2048, 3);
  std::uint64_t acc[4] = {1, 2, 3, 4};
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 32; ++rep) {
    for (std::size_t i = 0; i < a.size(); i += 4) {
      acc[0] = acc[0] * a[i] + (a[i] >> 3);
      acc[1] = acc[1] * a[i + 1] + (a[i + 1] >> 5);
      acc[2] = acc[2] * a[i + 2] + (a[i + 2] >> 7);
      acc[3] = acc[3] * a[i + 3] + (a[i + 3] >> 1);
    }
  }
  probe_sink = acc[0] ^ acc[1] ^ acc[2] ^ acc[3];
  return us_between(t0, Clock::now());
}

Task train_task(const dp::core::TaskSpec& spec, SpanLog* log) {
  Task t{{spec, {}, dpn::Mlp(spec.topology, spec.net_seed), 0, 0}, {}};
  dp::core::TrainedTask& tt = t.trained;
  {
    Scoped s(log, intern("data.prepare." + spec.name));
    const dp::data::Dataset full = generate(spec);
    if (full.features() != spec.topology.front()) {
      throw std::logic_error("topology/feature mismatch for " + spec.name);
    }
    tt.split = dp::data::stratified_split(full, 1.0 / 3.0, spec.data_seed + 1);
    dp::data::minmax_normalize(tt.split);
  }
  const dpn::Matrix xtr = dp::core::to_matrix(tt.split.train);
  const dpn::Matrix xte = dp::core::to_matrix(tt.split.test);
  {
    Scoped s(log, intern("nn.train." + spec.name));
    dpn::train(tt.net, xtr, tt.split.train.y, spec.train_cfg);
  }
  tt.float32_train_accuracy = dpn::accuracy(tt.net, xtr, tt.split.train.y);
  tt.float32_test_accuracy = dpn::accuracy(tt.net, xte, tt.split.test.y);
  t.test_flat = rt::pack_rows(tt.split.test.x, tt.net.input_dim());
  return t;
}

GridSetup grid_setup(const std::string& golden, SpanLog* log) {
  std::map<std::string, std::size_t> pinned;  // "task format" -> hits
  if (!golden.empty()) {
    std::ifstream is(golden);
    if (!is) throw std::runtime_error("cannot read " + golden);
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string task, fmt;
      std::size_t hits = 0, total = 0;
      if (!(ls >> task >> fmt >> hits >> total)) throw std::runtime_error("bad line: " + line);
      pinned[task + " " + fmt] = hits;
    }
  }
  GridSetup g;
  for (const dp::core::TaskSpec& spec : dp::core::paper_tasks()) {
    g.tasks.push_back(train_task(spec, log));
  }
  for (std::size_t ti = 0; ti < g.tasks.size(); ++ti) {
    const std::string& name = g.tasks[ti].trained.spec.name;
    for (int n = 5; n <= 8; ++n) {
      for (const dp::num::Format& fmt : dp::num::paper_format_grid(n)) {
        GridItem item{ti, fmt, 0};
        if (!golden.empty()) {
          const auto it = pinned.find(name + " " + fmt.name());
          if (it == pinned.end()) {
            throw std::runtime_error("no pinned accuracy for " + name + " " + fmt.name());
          }
          item.expected_hits = it->second;
        }
        g.items.push_back(item);
      }
    }
  }
  return g;
}

SweepResult grid_sweep(const GridSetup& g, std::uint64_t seed, SpanLog* log) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(g.items.size());
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, rng);

  std::vector<const char*> acc_span;
  for (const Task& t : g.tasks) {
    acc_span.push_back(intern("runtime.accuracy." + t.trained.spec.name));
  }
  rt::SessionOptions one;
  one.num_threads = 1;

  SweepResult r;
  const Clock::time_point start = Clock::now();
  for (const std::size_t idx : order) {
    const GridItem& item = g.items[idx];
    const Task& task = g.tasks[item.task];
    const rt::BatchView view(task.test_flat, task.width());

    std::shared_ptr<const rt::Model> model;
    std::optional<rt::Session> session;
    double acc = 0;
    const double probe_before = host_speed_probe_us();
    const Clock::time_point t0 = Clock::now();
    Clock::time_point ta, tb;
    {
      Scoped ev(log, "grid.eval");
      std::optional<dpn::QuantizedNetwork> q;
      {
        Scoped s(log, "nn.quantize");
        q.emplace(dpn::quantize(task.trained.net, item.format));
      }
      {
        Scoped s(log, "runtime.model_create");
        model = rt::Model::create(std::move(*q));
      }
      {
        Scoped s(log, "runtime.session_create");
        session.emplace(model, one);
      }
      ta = Clock::now();
      {
        Scoped s(log, acc_span[item.task]);
        acc = session->accuracy(view, task.trained.split.test.y);
      }
      tb = Clock::now();
    }
    r.eval_us.push_back(us_between(t0, Clock::now()));
    r.item.push_back(idx);
    r.probe_us.push_back((probe_before + host_speed_probe_us()) / 2);
    r.kernel_us[model->kernel_name()] += us_between(ta, tb);
    ++r.kernel_evals[model->kernel_name()];
    ++r.evals;

    const auto hits =
        static_cast<std::size_t>(std::llround(acc * static_cast<double>(task.rows())));
    if (hits != item.expected_hits) {
      std::fprintf(stderr, "grid-sweep: %s %s: %zu correct, pinned %zu\n",
                   task.trained.spec.name.c_str(), item.format.name().c_str(), hits,
                   item.expected_hits);
      ++r.failed;
    }
    std::uint64_t bad = 0;
    {
      Scoped s(log, "grid.step_check");
      bad = step_check(task, *model, *session, rng, log, r.step_macs);
    }
    if (bad != 0) {
      std::fprintf(stderr, "grid-sweep: %s %s: %llu rows differ from the step oracle\n",
                   task.trained.spec.name.c_str(), item.format.name().c_str(),
                   static_cast<unsigned long long>(bad));
      ++r.failed;
    }
  }
  r.wall_s = seconds_between(start, Clock::now());
  return r;
}

void grid_emit_golden(const GridSetup& g) {
  rt::SessionOptions one;
  one.num_threads = 1;
  std::printf("# task format correct test_rows  (grid-sweep pinned accuracies)\n");
  for (const GridItem& item : g.items) {
    const Task& task = g.tasks[item.task];
    rt::Session session(rt::Model::create(dpn::quantize(task.trained.net, item.format)), one);
    const double acc = session.accuracy(rt::BatchView(task.test_flat, task.width()),
                                        task.trained.split.test.y);
    std::printf("%s %s %lld %zu\n", task.trained.spec.name.c_str(), item.format.name().c_str(),
                std::llround(acc * static_cast<double>(task.rows())), task.rows());
  }
}

KernelReplay grid_kernel_replay(const GridSetup& g, std::uint64_t seed, SpanLog* log) {
  constexpr int kReps = 8;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  KernelReplay out;
  for (const GridItem& item : g.items) {
    const dpn::QuantizedNetwork q = dpn::quantize(g.tasks[item.task].trained.net, item.format);
    for (std::size_t li = 0; li < q.layers.size(); ++li) {
      const dpn::QuantizedLayer& layer = q.layers[li];
      const dp::num::Format& fmt = q.layer_format(li);
      std::unique_ptr<dp::emac::MatmulKernel> kern;
      {
        Scoped s(log, "emac.kernel_create");
        kern = dp::emac::MatmulKernel::create(fmt, layer.fan_in);
      }
      if (kern == nullptr) continue;
      std::vector<dp::emac::DecodedOp> decoded(layer.weights.size());
      dp::emac::make_emac(fmt, layer.fan_in)
          ->decode_plane(layer.weights.data(), layer.weights.size(), decoded.data());
      dp::emac::PackedPlane plane;
      {
        Scoped s(log, "emac.pack_plane");
        plane = kern->pack_plane(decoded.data(), layer.fan_out, layer.bias.data());
      }
      const std::size_t tile = kern->tile();
      std::vector<std::uint32_t> acts(layer.fan_in * tile);
      for (std::uint32_t& a : acts) a = fmt.from_double(u(rng));
      dp::emac::ActTile at;
      std::vector<std::uint32_t> res(layer.fan_out * tile);
      const Clock::time_point t0 = Clock::now();
      {
        Scoped s(log, "emac.pack_acts");
        for (int rep = 0; rep < kReps; ++rep) {
          kern->pack_acts(acts.data(), layer.fan_in, tile, tile, at);
        }
      }
      const Clock::time_point t1 = Clock::now();
      {
        Scoped s(log, intern(std::string("emac.matmul.") + kern->name()));
        for (int rep = 0; rep < kReps; ++rep) kern->matmul(plane, at, tile, res.data());
      }
      const Clock::time_point t2 = Clock::now();
      out.pack_acts_us += us_between(t0, t1);
      out.pack_acts_elems += static_cast<double>(kReps * layer.fan_in * tile);
      out.matmul_us[kern->name()] += us_between(t1, t2);
      out.macs[kern->name()] += static_cast<double>(kReps * layer.fan_in * layer.fan_out * tile);
    }
  }
  return out;
}

}  // namespace perfbench
