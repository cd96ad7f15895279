#ifndef KBT_COMMON_MATH_H_
#define KBT_COMMON_MATH_H_

#include <cmath>
#include <cstddef>
#include <span>

namespace kbt {

/// Numeric helpers shared by the inference code. All probability-space
/// operations clamp away from exact 0/1 so that log-odds stay finite; the
/// paper's vote counts (Eqs. 12-15, 19-21) are log-odds and the clamping
/// bound below caps a single vote at about +-27.6, far beyond any value that
/// matters after the sigmoid.
inline constexpr double kProbEpsilon = 1e-12;

/// Clamps `p` into [kProbEpsilon, 1 - kProbEpsilon].
double ClampProbability(double p);

/// Clamps `x` into [lo, hi].
double Clamp(double x, double lo, double hi);

/// Logistic sigmoid, sigma(x) = 1 / (1 + exp(-x)), evaluated in exactly
/// that form: never NaN for a non-NaN x, and non-decreasing over adjacent
/// doubles (the property core/calibration relies on).
double Sigmoid(double x);

/// Inverse sigmoid; input is clamped away from {0,1}.
double Logit(double p);

/// log(p) with p clamped away from zero.
double SafeLog(double p);

/// Numerically-stable log(sum_i exp(x_i)); returns -inf for an empty span.
double LogSumExp(std::span<const double> xs);

/// Squared difference, the unit of the paper's SqV/SqC/SqA losses.
inline double SquaredError(double a, double b) { return (a - b) * (a - b); }

/// True when |a - b| <= tol.
inline bool ApproxEqual(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

/// The paper's Eq. (7): derives an extractor's false-positive rate Q_e from
/// its precision P_e, recall R_e and the triple-density prior
/// gamma = p(C_wdv = 1):
///   Q_e = gamma/(1-gamma) * (1-P_e)/P_e * R_e.
/// The result is clamped into (0, 1).
double QFromPrecisionRecall(double precision, double recall, double gamma);

/// Inverse of Eq. (7): precision implied by (Q_e, R_e, gamma). Used by tests
/// and by the extractor-quality report.
double PrecisionFromQ(double q, double recall, double gamma);

/// Presence vote Pre_e = log R_e - log Q_e (Eq. 12).
double PresenceVote(double recall, double q);

/// Absence vote Abs_e = log(1-R_e) - log(1-Q_e) (Eq. 13).
double AbsenceVote(double recall, double q);

/// Source vote VCV(w) = log(n * A_w / (1 - A_w)) (Eq. 19).
double SourceVote(double accuracy, int num_false_values);

}  // namespace kbt

#endif  // KBT_COMMON_MATH_H_
