#include "core/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/session.hpp"

namespace dp::core {

TaskSpec iris_task() {
  TaskSpec t;
  t.name = "iris";
  t.topology = {4, 16, 8, 3};
  t.train_cfg.epochs = 400;
  t.train_cfg.batch_size = 16;
  t.train_cfg.learning_rate = 3e-3f;
  t.train_cfg.l2 = 1e-4f;
  t.train_cfg.seed = 11;
  return t;
}

TaskSpec wbc_task() {
  TaskSpec t;
  t.name = "wbc";
  t.topology = {30, 16, 8, 2};
  t.train_cfg.epochs = 250;
  t.train_cfg.batch_size = 32;
  t.train_cfg.learning_rate = 2e-3f;
  t.train_cfg.l2 = 2e-4f;
  t.train_cfg.seed = 13;
  return t;
}

TaskSpec mushroom_task() {
  TaskSpec t;
  t.name = "mushroom";
  t.topology = {119, 32, 16, 2};
  t.train_cfg.epochs = 40;
  t.train_cfg.batch_size = 64;
  t.train_cfg.learning_rate = 6e-3f;
  // Strong weight decay: the training labels carry ~2.5% noise and the net
  // must not memorize it (it would otherwise reach 100% train accuracy and
  // give up the ~97% test ceiling).
  t.train_cfg.l2 = 5e-3f;
  t.train_cfg.seed = 17;
  return t;
}

std::vector<TaskSpec> paper_tasks() { return {wbc_task(), iris_task(), mushroom_task()}; }

nn::Matrix to_matrix(const data::Dataset& d) {
  nn::Matrix m(d.size(), d.features());
  for (std::size_t r = 0; r < d.size(); ++r) {
    for (std::size_t c = 0; c < d.features(); ++c) {
      m(r, c) = static_cast<float>(d.x[r][c]);
    }
  }
  return m;
}

namespace {

data::Dataset generate(const TaskSpec& spec) {
  if (spec.name == "iris") return data::make_iris(spec.data_seed);
  if (spec.name == "wbc") return data::make_wbc(spec.data_seed);
  if (spec.name == "mushroom") return data::make_mushroom(spec.data_seed);
  throw std::invalid_argument("unknown task: " + spec.name);
}

}  // namespace

TrainedTask prepare_task(const TaskSpec& spec) {
  TrainedTask out{spec, {}, nn::Mlp(spec.topology, spec.net_seed), 0, 0};
  const data::Dataset full = generate(spec);
  if (full.features() != spec.topology.front()) {
    throw std::logic_error("prepare_task: topology/feature mismatch for " + spec.name);
  }
  out.split = data::stratified_split(full, 1.0 / 3.0, spec.data_seed + 1);
  data::minmax_normalize(out.split);

  const nn::Matrix xtr = to_matrix(out.split.train);
  const nn::Matrix xte = to_matrix(out.split.test);
  nn::train(out.net, xtr, out.split.train.y, spec.train_cfg);
  out.float32_train_accuracy = nn::accuracy(out.net, xtr, out.split.train.y);
  out.float32_test_accuracy = nn::accuracy(out.net, xte, out.split.test.y);
  return out;
}

namespace {

/// Shared core of evaluate_format / the sweeps: quantize, build the shared
/// immutable model, run one Session over the already-packed test split.
FormatResult evaluate_packed(const TrainedTask& task, const num::Format& fmt,
                             runtime::BatchView test_x, std::size_t num_threads) {
  runtime::Session session(runtime::Model::create(nn::quantize(task.net, fmt)),
                           {num_threads, nullptr});
  FormatResult r{fmt, 0, 0};
  r.accuracy = session.accuracy(test_x, task.split.test.y);
  r.degradation_points = (task.float32_test_accuracy - r.accuracy) * 100.0;
  return r;
}

/// The test split as one contiguous row-major buffer; packed once per sweep
/// and viewed by every format's Session. Rows are validated against the
/// network's input width (== the dataset's feature count, checked at
/// prepare_task), which also keeps an empty split well-formed.
std::vector<double> pack_test_split(const TrainedTask& task) {
  return runtime::pack_rows(task.split.test.x, task.net.input_dim());
}

}  // namespace

FormatResult evaluate_format(const TrainedTask& task, const num::Format& fmt,
                             std::size_t num_threads) {
  const std::vector<double> flat = pack_test_split(task);
  return evaluate_packed(task, fmt,
                         runtime::BatchView(flat, task.net.input_dim()), num_threads);
}

AssignmentResult evaluate_assignment(const TrainedTask& task,
                                     std::span<const num::Format> fmts,
                                     std::size_t num_threads) {
  const std::vector<double> flat = pack_test_split(task);
  const runtime::BatchView view(flat, task.net.input_dim());
  nn::QuantizedNetwork qnet = nn::quantize(task.net, fmts);
  AssignmentResult r{{fmts.begin(), fmts.end()}, 0, 0, qnet.bits_per_weight()};
  runtime::Session session(runtime::Model::create(std::move(qnet)), {num_threads, nullptr});
  r.accuracy = session.accuracy(view, task.split.test.y);
  r.degradation_points = (task.float32_test_accuracy - r.accuracy) * 100.0;
  return r;
}

std::vector<FormatResult> sweep_formats(const TrainedTask& task, int n,
                                        std::size_t num_threads) {
  const std::vector<double> flat = pack_test_split(task);
  const runtime::BatchView view(flat, task.net.input_dim());
  std::vector<FormatResult> out;
  for (const auto& fmt : num::paper_format_grid(n)) {
    out.push_back(evaluate_packed(task, fmt, view, num_threads));
  }
  return out;
}

std::vector<num::Format> paper_comparison_formats(int n) {
  std::vector<num::Format> out;
  for (int es = 0; es <= 3 && es <= n - 4; ++es) {
    out.emplace_back(num::PositFormat{n, es});
  }
  for (int we = 2; we <= 5 && we <= n - 2; ++we) {
    out.emplace_back(num::FloatFormat{we, n - 1 - we});
  }
  out.emplace_back(num::FixedFormat{n, n - 1});
  return out;
}

std::vector<FormatResult> sweep_paper_formats(const TrainedTask& task, int n,
                                              std::size_t num_threads) {
  const std::vector<double> flat = pack_test_split(task);
  const runtime::BatchView view(flat, task.net.input_dim());
  std::vector<FormatResult> out;
  for (const auto& fmt : paper_comparison_formats(n)) {
    out.push_back(evaluate_packed(task, fmt, view, num_threads));
  }
  return out;
}

std::optional<FormatResult> best_of_kind(const std::vector<FormatResult>& results,
                                         num::Kind kind) {
  std::optional<FormatResult> best;
  for (const auto& r : results) {
    if (r.format.kind() != kind) continue;
    if (!best || r.accuracy > best->accuracy) best = r;
  }
  return best;
}

}  // namespace dp::core
