#include "common/math.h"

#include <algorithm>
#include <limits>

namespace kbt {

double ClampProbability(double p) {
  return std::clamp(p, kProbEpsilon, 1.0 - kProbEpsilon);
}

double Clamp(double x, double lo, double hi) { return std::clamp(x, lo, hi); }

double Sigmoid(double x) {
  // Branch-free on purpose: exp(-x) overflowing to +inf below x ~ -709
  // yields exactly 0, and every step (exp, +1, reciprocal) is monotone, so
  // Sigmoid is monotone over adjacent doubles. The split form z/(1+z) for
  // x < 0 is not, and Stage I's calibration replay relies on it.
  return 1.0 / (1.0 + std::exp(-x));
}

double Logit(double p) {
  p = ClampProbability(p);
  return std::log(p / (1.0 - p));
}

double SafeLog(double p) { return std::log(std::max(p, kProbEpsilon)); }

double LogSumExp(std::span<const double> xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  double max_x = xs[0];
  for (double x : xs) max_x = std::max(max_x, x);
  if (!std::isfinite(max_x)) return max_x;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - max_x);
  return max_x + std::log(sum);
}

double QFromPrecisionRecall(double precision, double recall, double gamma) {
  precision = ClampProbability(precision);
  recall = ClampProbability(recall);
  gamma = ClampProbability(gamma);
  const double odds_gamma = gamma / (1.0 - gamma);
  const double q = odds_gamma * (1.0 - precision) / precision * recall;
  return ClampProbability(q);
}

double PrecisionFromQ(double q, double recall, double gamma) {
  q = ClampProbability(q);
  recall = ClampProbability(recall);
  gamma = ClampProbability(gamma);
  // Invert Q = g/(1-g) * (1-P)/P * R  =>  P = 1 / (1 + Q*(1-g)/(g*R)).
  const double ratio = q * (1.0 - gamma) / (gamma * recall);
  return ClampProbability(1.0 / (1.0 + ratio));
}

double PresenceVote(double recall, double q) {
  return SafeLog(recall) - SafeLog(q);
}

double AbsenceVote(double recall, double q) {
  return SafeLog(1.0 - ClampProbability(recall)) -
         SafeLog(1.0 - ClampProbability(q));
}

double SourceVote(double accuracy, int num_false_values) {
  const double a = ClampProbability(accuracy);
  const double n = std::max(1, num_false_values);
  return std::log(n * a / (1.0 - a));
}

}  // namespace kbt
