#ifndef KBT_CORE_CALIBRATION_H_
#define KBT_CORE_CALIBRATION_H_

#include <span>

#include "dataflow/parallel.h"

namespace kbt::core {

/// Stage I's shared intercept (see MultiLayerConfig::calibrate_correctness):
/// the tau for which mean_s Sigmoid(logodds[s] + tau) meets `target`, as
/// defined by a fixed program: kInterceptSteps bisection steps over
/// [-kInterceptBound, kInterceptBound], each comparing the dataflow::
/// BlockedSum mean at the midpoint against `target` (below: raise the lower
/// end, otherwise lower the upper end). tau is the last midpoint. Both
/// solves below take a non-empty `logodds`.
inline constexpr int kInterceptSteps = 60;
inline constexpr double kInterceptBound = 30.0;

struct InterceptSolve {
  double tau = 0.0;
  /// Full passes over the logits the solve made.
  int sweeps = 0;
};

/// The oracle: the bisection run literally, one sweep per step.
InterceptSolve SolveInterceptLiteral(dataflow::Executor* ex,
                                     std::span<const double> logodds,
                                     double target);

/// The same tau, bit for bit, from far fewer sweeps. A few Newton sweeps,
/// started at `warm_start`, find a bracket [a, b] with the decision known
/// at both ends (mean(a) < target, mean(b) not); then the bisection is
/// replayed step by step, and only a midpoint strictly inside the bracket
/// is swept (tightening it). Exact because the swept mean is non-decreasing
/// in tau: Sigmoid, the tau addition and the fixed-order sum are each
/// monotone, so a midpoint at or below a (at or above b) decides exactly as
/// a (b) did. The sweep also sums the slope, sum c(1 - c), in the same pass.
InterceptSolve SolveIntercept(dataflow::Executor* ex,
                              std::span<const double> logodds, double target,
                              double warm_start);

}  // namespace kbt::core

#endif  // KBT_CORE_CALIBRATION_H_
