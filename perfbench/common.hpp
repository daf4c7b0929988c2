#pragma once
// Shared pieces of the repository benchmark: the clock, the in-memory span
// log of a traced run, summary statistics, and the metric sink whose last
// line is the JSON result.
//
// Every span is recorded from the benchmark's own code around a call into a
// public function of one layer; nothing inside src/ is instrumented. A span
// log belongs to one thread, keeps its spans in memory, and is written out
// once, when the run ends.

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One closed span. `parent` indexes the enclosing span in the same log, or
/// kNoParent for a top-level span.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  const char* name = "";
  std::uint32_t parent = kNoParent;
  Clock::time_point t0{};
  Clock::time_point t1{};
};

/// Per-thread span log. A disabled log records nothing and costs one branch
/// per span, so the untraced run executes the same code path.
class SpanLog {
 public:
  SpanLog(std::string thread_name, bool on) : thread_(std::move(thread_name)), on_(on) {}

  bool on() const { return on_; }
  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

  std::uint32_t open(const char* name) {
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? Span::kNoParent : stack_.back();
    spans_.push_back(s);
    stack_.push_back(idx);
    spans_[idx].t0 = Clock::now();
    return idx;
  }
  void close(std::uint32_t idx) {
    spans_[idx].t1 = Clock::now();
    stack_.pop_back();
  }

 private:
  std::string thread_;
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;  // indices of the open spans
};

/// RAII span around one call. A null or disabled log makes it a no-op.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name) {
    if (log != nullptr && log->on()) {
      log_ = log;
      idx_ = log->open(name);
    }
  }
  ~Scoped() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_ = nullptr;
  std::uint32_t idx_ = 0;
};

/// Per-name totals over one or more span logs. Self time is a span's
/// duration minus the durations of its direct children.
struct SpanTotals {
  std::size_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

std::map<std::string, SpanTotals> aggregate(const std::vector<const SpanLog*>& logs);

/// Sum of self time over every span of the logs (equals the summed duration
/// of the top-level spans).
double total_self_us(const std::map<std::string, SpanTotals>& totals);

/// Write every span as one JSON object per line.
void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 Clock::time_point epoch);

/// The CPUs this process may run on, in ascending order.
const std::vector<int>& allowed_cpus();
/// Restrict the calling thread to `set` (threads it creates inherit it).
void set_affinity(const cpu_set_t& set);
/// Pin the calling thread to allowed CPU number k % allowed_cpus().size().
void pin_to_cpu(std::size_t k);
/// Let the calling thread run on every allowed CPU again.
void unpin();

/// Nearest-rank percentile of an unsorted sample (copied and sorted); 0 when
/// empty.
double pct(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return pct(std::move(v), 50); }

/// Named metrics in insertion order; `value` is printed with every digit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Human lines: "metric <name> = <value> <unit>".
  void print_human() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
