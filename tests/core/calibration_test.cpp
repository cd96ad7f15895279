// Stage I intercept solve: the bracket-and-replay solve must return the
// literal 60-step bisection's tau bit for bit, on every executor, for any
// logits, target and warm start.
#include "core/calibration.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dataflow/parallel.h"

namespace kbt::core {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Checks one solve: the literal tau is the same on every executor, and the
/// replay from `warm_start` lands on its bits. Returns the replay's sweeps
/// on the serial path.
int ExpectReplayMatchesLiteral(const std::vector<double>& logodds,
                               double target, double warm_start) {
  const InterceptSolve literal =
      SolveInterceptLiteral(nullptr, logodds, target);
  EXPECT_EQ(literal.sweeps, kInterceptSteps);
  const InterceptSolve replay =
      SolveIntercept(nullptr, logodds, target, warm_start);
  EXPECT_EQ(Bits(replay.tau), Bits(literal.tau))
      << "n=" << logodds.size() << " target=" << target
      << " warm=" << warm_start << " literal=" << literal.tau
      << " replay=" << replay.tau;
  static dataflow::Executor executors[] = {dataflow::Executor(1),
                                           dataflow::Executor(2),
                                           dataflow::Executor(8)};
  for (dataflow::Executor& executor : executors) {
    const int threads = executor.num_threads();
    EXPECT_EQ(Bits(SolveInterceptLiteral(&executor, logodds, target).tau),
              Bits(literal.tau))
        << "threads=" << threads;
    const InterceptSolve parallel =
        SolveIntercept(&executor, logodds, target, warm_start);
    EXPECT_EQ(Bits(parallel.tau), Bits(literal.tau)) << "threads=" << threads;
    EXPECT_EQ(parallel.sweeps, replay.sweeps) << "threads=" << threads;
  }
  return replay.sweeps;
}

/// Seeded logit arrays shaped like Stage I's: a normal bulk at a random
/// center and spread, some with a saturated tail or a cluster of ties.
std::vector<double> SeededLogits(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> size_pick(1, 6000);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const size_t n = seed % 10 == 0 ? 4096 * (1 + seed % 3) + seed % 7
                                  : size_pick(rng);
  const double center = -12.0 + 24.0 * uni(rng);
  const double spread = std::pow(10.0, -2.0 + 3.0 * uni(rng));
  std::normal_distribution<double> normal(center, spread);
  std::vector<double> x(n);
  for (double& v : x) v = normal(rng);
  if (seed % 4 == 1) {
    for (size_t s = 0; s < n; s += 7) x[s] = (s % 2 ? 1.0 : -1.0) * 50.0;
  }
  if (seed % 4 == 2) {
    for (size_t s = 0; s < n; s += 3) x[s] = center;
  }
  return x;
}

TEST(CalibrationTest, ReplayMatchesLiteralOnSeededLogits) {
  std::mt19937_64 rng(2015);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  int total_sweeps = 0;
  constexpr int kCases = 240;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(c);
    const std::vector<double> x = SeededLogits(static_cast<uint64_t>(c));
    const double target = 0.01 + 0.98 * uni(rng);
    // Warm starts: cold (0), pinned at either end of the bisection range,
    // or anywhere inside it.
    const double warm = c % 5 == 0   ? 0.0
                        : c % 5 == 1 ? -kInterceptBound
                        : c % 5 == 2 ? kInterceptBound
                                     : -20.0 + 40.0 * uni(rng);
    total_sweeps += ExpectReplayMatchesLiteral(x, target, warm);
    if (::testing::Test::HasFailure()) return;
  }
  // Far fewer than the literal loop's 60 per solve.
  EXPECT_LE(total_sweeps, 20 * kCases);
}

TEST(CalibrationTest, WarmStartAtThePreviousAnswerNeedsFewSweeps) {
  // Consecutive EM iterations: the logits move a little, and the solve
  // starts from the previous tau.
  std::mt19937_64 rng(7);
  std::normal_distribution<double> normal(-1.0, 2.0);
  std::vector<double> x(20000);
  for (double& v : x) v = normal(rng);
  double tau = 0.0;
  int total = 0;
  for (int iteration = 0; iteration < 10; ++iteration) {
    for (double& v : x) v += 0.01 * normal(rng);
    const InterceptSolve literal = SolveInterceptLiteral(nullptr, x, 0.4);
    const InterceptSolve replay = SolveIntercept(nullptr, x, 0.4, tau);
    ASSERT_EQ(Bits(replay.tau), Bits(literal.tau)) << iteration;
    tau = replay.tau;
    total += replay.sweeps;
  }
  EXPECT_LE(total, 10 * 20);
}

TEST(CalibrationTest, AllSlotsEqual) {
  for (double v : {-3.0, 0.0, 0.25, 17.0}) {
    SCOPED_TRACE(v);
    for (size_t n : {size_t{1}, size_t{5}, size_t{4097}}) {
      ExpectReplayMatchesLiteral(std::vector<double>(n, v), 0.4, 0.0);
      ExpectReplayMatchesLiteral(std::vector<double>(n, v), 0.4, -v);
    }
  }
}

TEST(CalibrationTest, UnreachableTargetSaturatesAtTheRangeEnds) {
  // Mean stays below the target for every tau in range: tau climbs to +30.
  const std::vector<double> low(3000, -80.0);
  ExpectReplayMatchesLiteral(low, 0.99, 0.0);
  EXPECT_GT(SolveIntercept(nullptr, low, 0.99, 0.0).tau, 29.999);
  // Mean at or above the target everywhere: tau falls to -30.
  const std::vector<double> high(3000, 80.0);
  ExpectReplayMatchesLiteral(high, 0.01, 5.0);
  EXPECT_LT(SolveIntercept(nullptr, high, 0.01, 5.0).tau, -29.999);
}

TEST(CalibrationTest, InfiniteLogits) {
  // Slots at +-inf contribute exactly 1 and 0 at every tau.
  std::vector<double> x = {kInf, -kInf, 0.5, -2.0, kInf, -kInf, -kInf, 3.0};
  for (double target : {0.01, 0.3, 0.4, 0.5, 0.7, 0.99}) {
    SCOPED_TRACE(target);
    ExpectReplayMatchesLiteral(x, target, 0.0);
    ExpectReplayMatchesLiteral(x, target, 12.0);
  }
  // Only infinities: the mean is constant in tau.
  ExpectReplayMatchesLiteral({kInf, -kInf, -kInf}, 0.4, 0.0);
  ExpectReplayMatchesLiteral({kInf, -kInf}, 0.4, 0.0);
}

TEST(CalibrationTest, SingleSlot) {
  for (double v : {-29.0, -1.5, 0.0, 1e-300, 2.0, 40.0}) {
    SCOPED_TRACE(v);
    for (double target : {0.01, 0.4, 0.99}) {
      ExpectReplayMatchesLiteral({v}, target, 0.0);
    }
  }
}

TEST(CalibrationTest, SizesAroundTheBlockBoundary) {
  std::mt19937_64 rng(11);
  std::normal_distribution<double> normal(0.5, 3.0);
  for (size_t n : {dataflow::kBlockedSumBlock - 1, dataflow::kBlockedSumBlock,
                   dataflow::kBlockedSumBlock + 1,
                   3 * dataflow::kBlockedSumBlock + 17}) {
    SCOPED_TRACE(n);
    std::vector<double> x(n);
    for (double& v : x) v = normal(rng);
    ExpectReplayMatchesLiteral(x, 0.4, 0.0);
    ExpectReplayMatchesLiteral(x, 0.4, 1.0);
  }
}

}  // namespace
}  // namespace kbt::core
