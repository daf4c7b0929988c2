#pragma once
// The benchmark's three workloads.
//
//   grid-sweep     the paper's own evaluation: every format of
//                  paper_format_grid(n), n = 5..8, on the three Table II nets,
//                  each one nn::quantize -> Model::create -> a 1-thread
//                  Session::accuracy over the test split.
//   serve-raw      open-loop TCP traffic of raw v1 frames to a 2-shard
//                  serve::Server holding the WBC net in posit<8,0>.
//   serve-swap-v4  the Mushroom net as a mixed-precision model, served by name
//                  over v4 frames with entropy-coded payloads, while the
//                  registry hot-swaps it between two .dpnetz artifacts.
//
// Each workload is split into a set-up (timed as setup_s) and passes that
// main.cpp runs untraced (end-to-end metrics) or traced (per-layer metrics).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "numeric/format.hpp"
#include "runtime/model.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace perfbench {

/// Interned, stable C string for span names built at run time.
const char* intern(const std::string& s);

/// A trained Table II task plus its test split packed for BatchView.
struct Task {
  dp::core::TrainedTask trained;
  std::vector<double> test_flat;
  std::size_t rows() const { return trained.split.test.size(); }
  std::size_t width() const { return trained.net.input_dim(); }
  std::span<const double> row(std::size_t i) const {
    return std::span<const double>(test_flat).subspan(i * width(), width());
  }
};

/// Generate, split, normalize and train one task exactly as
/// core::prepare_task does, with the training inside an "nn.train.<task>"
/// span.
Task train_task(const dp::core::TaskSpec& spec, SpanLog* log);

// --- grid-sweep --------------------------------------------------------------

struct GridItem {
  std::size_t task = 0;  ///< index into GridSetup::tasks
  dp::num::Format format;
  std::size_t expected_hits = 0;  ///< pinned correct predictions on the test split
};

struct GridSetup {
  std::vector<Task> tasks;      ///< core::paper_tasks() order
  std::vector<GridItem> items;  ///< 132 evaluations, grid order
};

/// Train the three nets and attach the pinned accuracies read from `golden`
/// (throws if the file does not cover every evaluation).
GridSetup grid_setup(const std::string& golden, SpanLog* log);

struct SweepResult {
  double wall_s = 0;               ///< whole sweep, step checks included
  std::vector<double> eval_us;     ///< one per evaluation, in sweep order
  std::vector<std::size_t> item;   ///< GridSetup::items index of each evaluation
  std::vector<double> probe_us;    ///< host_speed_probe_us() around each evaluation
  std::uint64_t evals = 0;
  std::uint64_t failed = 0;        ///< accuracy != pinned, or step-oracle mismatch
  std::map<std::string, double> kernel_us;  ///< accuracy time by Model::kernel_name()
  std::map<std::string, std::size_t> kernel_evals;
  double step_macs = 0;            ///< MACs replayed through ForwardPath::kStep
};

/// Time of a fixed integer multiply-add loop over a 16 KiB array, about
/// 25 us on a fast x86-64 core. It calls nothing in the library, so it
/// tracks only the host's momentary speed.
double host_speed_probe_us();

/// One pass over all 132 evaluations in a seeded order. After each
/// evaluation a seeded sample of test rows is cross-checked against the
/// paper's step recurrence (outside the evaluation's own time).
SweepResult grid_sweep(const GridSetup& g, std::uint64_t seed, SpanLog* log);

/// Print "task format hits total" for every evaluation (regenerates the
/// pinned table).
void grid_emit_golden(const GridSetup& g);

/// Per-layer replay of MatmulKernel::create/pack_plane/pack_acts/matmul on
/// every (format, layer) shape of the grid, with seeded activations.
struct KernelReplay {
  std::map<std::string, double> macs;      ///< by kernel name
  std::map<std::string, double> matmul_us; ///< by kernel name
  double pack_acts_us = 0;
  double pack_acts_elems = 0;
};
KernelReplay grid_kernel_replay(const GridSetup& g, std::uint64_t seed, SpanLog* log);

// --- serving -----------------------------------------------------------------

/// A running server plus everything the generator needs to check replies.
struct ServeEnv {
  bool compress = false;        ///< v4 frames with codec payload blocks
  std::string model_name;       ///< "" = v1 frames to the default entry
  std::shared_ptr<const Task> task;
  /// Generation g of the served entry runs models[g % models.size()];
  /// expected[m] holds a direct Session's readout for every test row.
  std::vector<std::shared_ptr<const dp::runtime::Model>> models;
  std::vector<std::vector<std::uint32_t>> expected;
  std::vector<std::string> artifacts;  ///< .dpnetz files, same order as models
  dp::serve::BatcherOptions batcher;
  std::unique_ptr<dp::serve::ModelRegistry> registry;
  std::unique_ptr<dp::serve::Server> server;
  std::vector<dp::serve::FdStream> conns;
  std::atomic<std::uint64_t> epoch{0};  ///< odd while a swap is in progress

  ServeEnv() = default;
  ServeEnv(const ServeEnv&) = delete;
  ServeEnv& operator=(const ServeEnv&) = delete;
  /// Closes the connections, then stops the server and drains the registry.
  ~ServeEnv();
};

/// serve-raw set-up: quantize the trained WBC net to posit<8,0>, start the
/// server, open `conns` TCP connections spread evenly over the shards.
std::unique_ptr<ServeEnv> serve_raw_setup(std::shared_ptr<const Task> wbc, std::size_t conns);
/// serve-swap-v4 set-up: write the two mixed-precision artifacts of the
/// trained Mushroom net into `work_dir`, serve the first under the name
/// "mushroom", connect as above.
std::unique_ptr<ServeEnv> serve_swap_setup(std::shared_ptr<const Task> mushroom,
                                           std::size_t conns, const std::string& work_dir);

struct PassConfig {
  double rate = 0;          ///< offered requests per second
  double warmup_s = 0.5;    ///< sent and checked, not measured
  double measure_s = 1;
  double window_s = 1;      ///< percentile window; the median over windows is reported
  std::uint64_t seed = 1;
  bool swap = false;        ///< hot-swap the entry at every control tick (250 ms)
};

struct PassResult {
  std::uint64_t attempted = 0, ok = 0, bad_status = 0, mismatch = 0, lost = 0;
  std::uint64_t measured = 0;
  std::vector<double> rtt_us;          ///< measured requests
  std::vector<double> win_p50_us, win_p90_us, win_p99_us;
  std::vector<double> lag_us;          ///< measured requests
  double goodput = 0;  ///< verified kOk replies per second of the measured window
  std::uint64_t raw_bytes = 0, coded_bytes = 0;  ///< request payloads (compressed runs)
  std::vector<double> swap_ms, swap_load_ms, swap_install_ms;
  std::uint64_t served_by[2] = {0, 0};
  // Batcher counters summed over stats readings (an entry's counters restart
  // when a swap replaces it), and the readings' wait percentiles.
  std::uint64_t batches = 0, completed = 0, deadline_exceeded = 0, rejected = 0;
  std::vector<double> wait_p50_us, wait_p99_us;
  std::vector<dp::serve::ShardStats> shards;  ///< per-shard deltas over the pass
  std::uint64_t control_errors = 0;  ///< a stats read or swap threw
  std::uint64_t failed() const { return bad_status + mismatch + lost + control_errors; }
};

/// One open-loop pass: a single generator thread multiplexes every
/// connection with ppoll(2), sends on a fixed schedule and times each
/// request from its scheduled instant. A control thread reads the entry's
/// batcher stats (and swaps the model when cfg.swap) every 250 ms.
PassResult serve_pass(ServeEnv& env, const PassConfig& cfg, SpanLog* gen_log,
                      SpanLog* control_log);

/// Session::forward_bits_into on `batch` seeded test rows, `reps` times;
/// returns the per-call times in microseconds.
std::vector<double> forward_replay(const ServeEnv& env, std::size_t batch, std::size_t reps,
                                   std::uint64_t seed, SpanLog* log);

/// num::convert across each format boundary of the served model, over every
/// source pattern, `reps` times; returns nanoseconds per call (0 when the
/// model has no boundary).
double convert_replay(const ServeEnv& env, std::size_t reps, SpanLog* log);

}  // namespace perfbench
