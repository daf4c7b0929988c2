#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "core/percentile.hpp"

namespace perfbench {

std::map<std::string, SpanTotals> aggregate(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent != Span::kNoParent) child_us[s.parent] += us_between(s.t0, s.t1);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double d = us_between(spans[i].t0, spans[i].t1);
      SpanTotals& t = out[spans[i].name];
      ++t.count;
      t.total_us += d;
      t.self_us += d - child_us[i];
    }
  }
  return out;
}

double total_self_us(const std::map<std::string, SpanTotals>& totals) {
  double sum = 0;
  for (const auto& [name, t] : totals) sum += t.self_us;
  return sum;
}

void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 Clock::time_point epoch) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << "{\"thread\":\"" << log->thread() << "\",\"id\":" << i << ",\"parent\":"
         << (s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent))
         << ",\"name\":\"" << s.name << "\",\"start_us\":" << us_between(epoch, s.t0)
         << ",\"end_us\":" << us_between(epoch, s.t1) << "}\n";
    }
  }
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void set_affinity(const cpu_set_t& set) { ::sched_setaffinity(0, sizeof(set), &set); }

void pin_to_cpu(std::size_t k) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[k % cpus.size()], &set);
  set_affinity(set);
}

void unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : allowed_cpus()) CPU_SET(c, &set);
  if (!allowed_cpus().empty()) set_affinity(set);
}

double pct(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return dp::core::percentile(v, p);
}

void Metrics::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Metrics::print_human() const {
  for (const Entry& e : entries_) {
    std::printf("metric %-36s = %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

void Metrics::print_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
