// The reproduction, pinned exactly: for each Table II task, the number of
// correctly classified test rows under every format of paper_format_grid(n),
// n = 5..8 — all 132 (task, format) pairs. The counts are read from
// perfbench/grid_golden.txt (the benchmark's own pinned table, path passed in
// as DP_GRID_GOLDEN_PATH), so the numbers have one source. Every driver is
// seeded, so any change to an inference path that flips even one
// classification fails here. Run it under DP_FORCE_STEP_PATH=1 to check that
// the paper's reset/step/result recurrence alone reproduces the same table.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/experiment.hpp"

namespace dp::core {
namespace {

struct Pinned {
  std::size_t correct = 0;
  std::size_t rows = 0;
};

/// (task, format name) -> pinned count, from the golden file.
using Golden = std::map<std::pair<std::string, std::string>, Pinned>;

const Golden& golden() {
  static const Golden table = [] {
    Golden g;
    std::ifstream is(DP_GRID_GOLDEN_PATH);
    if (!is) throw std::runtime_error("cannot read " DP_GRID_GOLDEN_PATH);
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string task, fmt;
      Pinned p;
      if (!(ls >> task >> fmt >> p.correct >> p.rows)) {
        throw std::runtime_error("bad golden line: " + line);
      }
      g[{task, fmt}] = p;
    }
    return g;
  }();
  return table;
}

TaskSpec spec_named(const std::string& name) {
  for (const TaskSpec& spec : paper_tasks()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("no paper task named " + name);
}

/// Train `name`, sweep n = 5..8 and compare every correct-count with the
/// golden table; also require the table to hold no entry the sweep skipped.
void expect_task_matches_golden(const std::string& name) {
  const TrainedTask task = prepare_task(spec_named(name));
  const std::size_t rows = task.split.test.size();
  std::size_t checked = 0;
  for (int n = 5; n <= 8; ++n) {
    for (const FormatResult& r : sweep_formats(task, n)) {
      const auto it = golden().find({name, r.format.name()});
      ASSERT_NE(it, golden().end()) << name << " " << r.format.name() << " is not pinned";
      const Pinned& want = it->second;
      ASSERT_EQ(rows, want.rows) << name;
      const auto correct =
          static_cast<std::size_t>(std::llround(r.accuracy * static_cast<double>(rows)));
      EXPECT_EQ(correct, want.correct) << name << " " << r.format.name();
      ++checked;
    }
  }
  std::size_t pinned = 0;
  for (const auto& [key, p] : golden()) pinned += key.first == name ? 1 : 0;
  EXPECT_EQ(checked, pinned) << name;
}

TEST(GoldenGrid, TableCoversThreeTasksAt44FormatsEach) {
  EXPECT_EQ(golden().size(), 132u);
  std::size_t grid = 0;
  for (int n = 5; n <= 8; ++n) grid += num::paper_format_grid(n).size();
  EXPECT_EQ(grid * paper_tasks().size(), golden().size());
}

TEST(GoldenGrid, WbcMatchesPinnedCounts) { expect_task_matches_golden("wbc"); }
TEST(GoldenGrid, IrisMatchesPinnedCounts) { expect_task_matches_golden("iris"); }
TEST(GoldenGrid, MushroomMatchesPinnedCounts) { expect_task_matches_golden("mushroom"); }

}  // namespace
}  // namespace dp::core
