#include "common/math.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace kbt {
namespace {

TEST(MathTest, SigmoidBasicValues) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-15);
  EXPECT_NEAR(Sigmoid(-2.0), 1.0 - Sigmoid(2.0), 1e-15);
}

TEST(MathTest, SigmoidExtremesDoNotOverflow) {
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(Sigmoid(709.0)));
  EXPECT_TRUE(std::isfinite(Sigmoid(-709.0)));
}

TEST(MathTest, SigmoidIsMonotoneOverAdjacentDoubles) {
  // Stage I's calibration replay (core/calibration.h) is exact only if
  // Sigmoid never decreases from one double to the next. Walk windows of
  // adjacent doubles: a grid over [-60, 60], around 0 and the denormals,
  // and across the exp overflow / underflow edges near +-709 and +-745.
  std::vector<double> centers;
  for (double c = -60.0; c <= 60.0; c += 0.37) centers.push_back(c);
  for (double c : {0.0, 1e-300, -1e-300, 1e-16, -1e-16, 5e-324}) {
    centers.push_back(c);
  }
  for (double c : {709.782712893384, 709.0, 710.0, 745.1332191019412}) {
    centers.push_back(c);
    centers.push_back(-c);
  }
  constexpr int kHalfWindow = 1000;
  const double inf = std::numeric_limits<double>::infinity();
  int64_t pairs = 0;
  for (double center : centers) {
    double x = center;
    for (int i = 0; i < kHalfWindow; ++i) x = std::nextafter(x, -inf);
    double prev = Sigmoid(x);
    for (int i = 0; i < 2 * kHalfWindow; ++i) {
      x = std::nextafter(x, inf);
      const double cur = Sigmoid(x);
      ASSERT_GE(cur, prev) << "x=" << x << " center=" << center;
      prev = cur;
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 600000);
}

TEST(MathTest, LogitInvertsSigmoid) {
  for (double x : {-5.0, -1.0, 0.0, 0.3, 2.0, 8.0}) {
    EXPECT_NEAR(Logit(Sigmoid(x)), x, 1e-9) << "x=" << x;
  }
}

TEST(MathTest, LogitClampsEndpoints) {
  EXPECT_TRUE(std::isfinite(Logit(0.0)));
  EXPECT_TRUE(std::isfinite(Logit(1.0)));
  EXPECT_LT(Logit(0.0), -20.0);
  EXPECT_GT(Logit(1.0), 20.0);
}

TEST(MathTest, LogSumExpMatchesDirectComputation) {
  const std::vector<double> xs = {0.1, -2.0, 3.5};
  double direct = 0.0;
  for (double x : xs) direct += std::exp(x);
  EXPECT_NEAR(LogSumExp(xs), std::log(direct), 1e-12);
}

TEST(MathTest, LogSumExpHandlesLargeInputs) {
  // Direct exp(1000) would overflow; the stable version must not.
  const std::vector<double> xs = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(xs), 1000.0 + std::log(2.0), 1e-9);
}

TEST(MathTest, LogSumExpEmptyIsMinusInfinity) {
  EXPECT_TRUE(std::isinf(LogSumExp({})));
  EXPECT_LT(LogSumExp({}), 0);
}

// Eq. (7) examples from Table 3 of the paper (gamma = 0.25):
//   E3: P=.85, R=.99 -> Q ~ .06
//   E4: P=.33, R=.33 -> Q ~ .22
//   E5: P=.25, R=.17 -> Q = .17
TEST(MathTest, QFromPrecisionRecallMatchesTable3) {
  const double gamma = 0.25;
  EXPECT_NEAR(QFromPrecisionRecall(0.85, 0.99, gamma), 0.06, 0.005);
  EXPECT_NEAR(QFromPrecisionRecall(0.33, 0.33, gamma), 0.22, 0.005);
  EXPECT_NEAR(QFromPrecisionRecall(0.25, 0.17, gamma), 0.17, 0.005);
}

TEST(MathTest, PrecisionFromQInvertsEq7) {
  const double gamma = 0.25;
  for (double p : {0.2, 0.5, 0.85, 0.99}) {
    for (double r : {0.1, 0.5, 0.9}) {
      // Skip combinations where Eq. (7) exceeds 1 and is clamped (a Q of 1
      // is not a valid false-positive rate, so the inverse is undefined).
      const double unclamped = gamma / (1 - gamma) * (1 - p) / p * r;
      if (unclamped >= 1.0) continue;
      const double q = QFromPrecisionRecall(p, r, gamma);
      EXPECT_NEAR(PrecisionFromQ(q, r, gamma), p, 1e-9)
          << "P=" << p << " R=" << r;
    }
  }
}

// Table 3: presence/absence votes derived from (Q, R).
//   Pre(E1)=ln(.99/.01)=4.6, Abs(E1)=ln(.01/.99)=-4.6
//   Pre(E2)=ln(.5/.01)=3.9,  Abs(E2)=ln(.5/.99)=-0.7
//   Pre(E3)=ln(.99/.06)=2.8, Abs(E3)=ln(.01/.94)=-4.5
//   Pre(E4)=ln(.33/.22)=0.4, Abs(E4)=ln(.67/.78)=-0.15
//   Pre(E5)=0,               Abs(E5)=0
TEST(MathTest, VotesMatchTable3) {
  EXPECT_NEAR(PresenceVote(0.99, 0.01), 4.6, 0.05);
  EXPECT_NEAR(AbsenceVote(0.99, 0.01), -4.6, 0.05);
  EXPECT_NEAR(PresenceVote(0.5, 0.01), 3.9, 0.05);
  EXPECT_NEAR(AbsenceVote(0.5, 0.01), -0.7, 0.05);
  EXPECT_NEAR(PresenceVote(0.99, 0.06), 2.8, 0.05);
  EXPECT_NEAR(AbsenceVote(0.99, 0.06), -4.5, 0.05);
  EXPECT_NEAR(PresenceVote(0.33, 0.22), 0.4, 0.05);
  EXPECT_NEAR(AbsenceVote(0.33, 0.22), -0.15, 0.05);
  EXPECT_NEAR(PresenceVote(0.17, 0.17), 0.0, 1e-9);
  EXPECT_NEAR(AbsenceVote(0.17, 0.17), 0.0, 1e-9);
}

// Example 3.2: A_w = 0.6, n = 10 -> vote = ln(10*0.6/0.4) = 2.7.
TEST(MathTest, SourceVoteMatchesExample32) {
  EXPECT_NEAR(SourceVote(0.6, 10), 2.708, 0.001);
}

TEST(MathTest, SourceVoteIsMonotonicInAccuracy) {
  double prev = SourceVote(0.05, 10);
  for (double a = 0.1; a < 1.0; a += 0.05) {
    const double v = SourceVote(a, 10);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(MathTest, ClampProbabilityBounds) {
  EXPECT_GT(ClampProbability(0.0), 0.0);
  EXPECT_LT(ClampProbability(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ClampProbability(0.5), 0.5);
}

// Regression: the log-odds helpers must clamp their probability inputs away
// from {0, 1} *before* dividing — an unclamped p == 1.0 in Logit (or
// a == 1.0 in SourceVote) divides by zero and the resulting inf/NaN
// propagates through every subsequent inference vote.
TEST(MathTest, SourceVoteEndpointsAreFinite) {
  for (const int n : {1, 10, 100}) {
    EXPECT_TRUE(std::isfinite(SourceVote(1.0, n))) << n;
    EXPECT_TRUE(std::isfinite(SourceVote(0.0, n))) << n;
  }
  // A perfect source votes strongly for, a broken one strongly against.
  EXPECT_GT(SourceVote(1.0, 10), 20.0);
  EXPECT_LT(SourceVote(0.0, 10), -20.0);
  // Degenerate domain sizes are lifted to n = 1 rather than log(0).
  EXPECT_TRUE(std::isfinite(SourceVote(0.6, 0)));
  EXPECT_TRUE(std::isfinite(SourceVote(0.6, -5)));
}

// UBSan-sensitive edges (these run under the sanitizer matrix CI jobs,
// where -fno-sanitize-recover turns any log(0)/division-by-zero/overflow
// reached here into a hard failure, not just a wrong number).

TEST(MathTest, SafeLogGuardsZeroAndNegative) {
  // log(0) is -inf and log(-x) is NaN; SafeLog must clamp first.
  EXPECT_TRUE(std::isfinite(SafeLog(0.0)));
  EXPECT_NEAR(SafeLog(0.0), std::log(kProbEpsilon), 1e-12);
  EXPECT_TRUE(std::isfinite(SafeLog(-1.0)));
  EXPECT_DOUBLE_EQ(SafeLog(1.0), 0.0);
}

TEST(MathTest, LogitSurvivesScoreUnderflow) {
  // Probabilities that underflowed to subnormals (or to exactly 0) appear
  // in long EM chains; the clamp keeps the log-odds finite.
  const double subnormal = 5e-324;
  EXPECT_TRUE(std::isfinite(Logit(subnormal)));
  EXPECT_TRUE(std::isfinite(Logit(1.0 - 1e-18)));  // Rounds to 1.0.
  EXPECT_TRUE(std::isfinite(Logit(-0.25)));        // Clamped from below.
  EXPECT_TRUE(std::isfinite(Logit(1.25)));         // Clamped from above.
}

TEST(MathTest, LogSumExpHandlesInfiniteVotes) {
  const double inf = std::numeric_limits<double>::infinity();
  // All-(-inf): every candidate value has zero mass. The guard returns
  // -inf directly instead of computing exp(-inf - (-inf)) = exp(NaN).
  const std::vector<double> all_dead = {-inf, -inf};
  EXPECT_TRUE(std::isinf(LogSumExp(all_dead)));
  EXPECT_LT(LogSumExp(all_dead), 0.0);
  // +inf dominates and must come back unchanged, not as NaN.
  const std::vector<double> peaked = {inf, 0.0};
  EXPECT_TRUE(std::isinf(LogSumExp(peaked)));
  EXPECT_GT(LogSumExp(peaked), 0.0);
}

TEST(MathTest, ClampProbabilityRejectsOutOfRangeInputs) {
  EXPECT_DOUBLE_EQ(ClampProbability(-3.0), kProbEpsilon);
  EXPECT_DOUBLE_EQ(ClampProbability(4.0), 1.0 - kProbEpsilon);
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(2.0, 0.0, 1.0), 1.0);
}

TEST(MathTest, VoteHelpersAreFiniteAtProbabilityEndpoints) {
  for (const double p : {0.0, 1.0}) {
    for (const double q : {0.0, 1.0}) {
      EXPECT_TRUE(std::isfinite(PresenceVote(p, q))) << p << " " << q;
      EXPECT_TRUE(std::isfinite(AbsenceVote(p, q))) << p << " " << q;
      EXPECT_TRUE(std::isfinite(QFromPrecisionRecall(p, q, 0.25)))
          << p << " " << q;
      EXPECT_TRUE(std::isfinite(PrecisionFromQ(p, q, 0.25))) << p << " " << q;
    }
  }
}

}  // namespace
}  // namespace kbt
