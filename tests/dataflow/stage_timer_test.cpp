#include "dataflow/stage_timer.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace kbt::dataflow {
namespace {

TEST(StageTimersTest, AddAccumulates) {
  StageTimers timers;
  timers.Add("ExtCorr", 1.5);
  timers.Add("ExtCorr", 0.5);
  timers.Add("TriplePr", 2.0);
  EXPECT_DOUBLE_EQ(timers.TotalSeconds("ExtCorr"), 2.0);
  EXPECT_DOUBLE_EQ(timers.TotalSeconds("TriplePr"), 2.0);
  EXPECT_EQ(timers.Count("ExtCorr"), 2);
}

TEST(StageTimersTest, UnknownStageIsZero) {
  StageTimers timers;
  EXPECT_DOUBLE_EQ(timers.TotalSeconds("nope"), 0.0);
  EXPECT_EQ(timers.Count("nope"), 0);
}

TEST(StageTimersTest, ScopeRecordsElapsedTime) {
  StageTimers timers;
  {
    StageTimers::Scope scope(&timers, "stage");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(timers.TotalSeconds("stage"), 0.015);
  EXPECT_EQ(timers.Count("stage"), 1);
}

TEST(StageTimersTest, NullScopeIsANoOp) {
  // The one-line call-site form: a run without timers passes null, and the
  // scope records nowhere (no kbt_em_stage_seconds series appears).
  obs::SetMetricsEnabled(true);
  const size_t registered = obs::MetricsRegistry::Default().size();
  { StageTimers::Scope scope(nullptr, "null-scope-probe"); }
  EXPECT_EQ(obs::MetricsRegistry::Default().size(), registered);
}

TEST(StageTimersTest, ClearResets) {
  StageTimers timers;
  timers.Add("x", 1.0);
  timers.Clear();
  EXPECT_EQ(timers.Count("x"), 0);
  EXPECT_DOUBLE_EQ(timers.TotalSeconds("x"), 0.0);
}

TEST(StageTimersTest, ConcurrentAddsAreSafe) {
  StageTimers timers;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&timers] {
      for (int i = 0; i < 1000; ++i) timers.Add("shared", 0.001);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(timers.Count("shared"), 8000);
  EXPECT_NEAR(timers.TotalSeconds("shared"), 8.0, 1e-6);
}

}  // namespace
}  // namespace kbt::dataflow
