// obs::MonotonicSeconds is the one interval clock of the library: every
// stage timer, request latency and bench measurement reads it.
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "kbt/obs.h"

namespace kbt::obs {
namespace {

TEST(MonotonicClockTest, MeasuresElapsedTime) {
  const double start = MonotonicSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  const double elapsed = MonotonicSeconds() - start;
  EXPECT_GE(elapsed, 0.02);
  EXPECT_LT(elapsed, 2.0);
}

TEST(MonotonicClockTest, TimeIsMonotone) {
  double prev = MonotonicSeconds();
  for (int i = 0; i < 100; ++i) {
    const double now = MonotonicSeconds();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace kbt::obs
