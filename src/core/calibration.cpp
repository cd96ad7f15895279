#include "core/calibration.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/math.h"

namespace kbt::core {

namespace {

/// Sweeps the bracket search may spend before the replay takes over.
constexpr int kMaxBracketSweeps = 20;

/// The bracket search stops once the bracket is at most this many
/// Resolution()s wide: below that a Newton sweep decides no more midpoints
/// than a replay sweep does.
constexpr double kBracketResolutions = 8.0;

/// Newton steps shorter than this are pushed past the root by step^2.
constexpr double kOvershootBelow = 1e-2;

struct Sweep {
  double mean = 0.0;
  /// d mean / d tau = mean of c (1 - c).
  double slope = 0.0;
};

/// The literal program's mean at `tau` (its `.mean`, bit for bit: the same
/// per-block loop and block-order combine as BlockedSum), plus the slope.
Sweep SweepAt(dataflow::Executor* ex, std::span<const double> logodds,
              double tau) {
  const auto [sum, slope] = dataflow::BlockedSumPair(
      ex, logodds.size(), [&](size_t begin, size_t end) {
        double m = 0.0;
        double d = 0.0;
        for (size_t s = begin; s < end; ++s) {
          const double c = Sigmoid(logodds[s] + tau);
          m += c;
          d += c * (1.0 - c);
        }
        return std::pair<double, double>(m, d);
      });
  const double n = static_cast<double>(logodds.size());
  return {sum / n, slope / n};
}

/// The finest spacing the replay can tell apart near `x`: one ULP of x,
/// but never below the last bisection step's half-width (midpoints near 0
/// are multiples of it, however small x's own ULP).
double Resolution(double x) {
  x = std::fabs(x);
  return std::max(
      std::nextafter(x, std::numeric_limits<double>::infinity()) - x,
      std::ldexp(kInterceptBound, -kInterceptSteps));
}

}  // namespace

InterceptSolve SolveInterceptLiteral(dataflow::Executor* ex,
                                     std::span<const double> logodds,
                                     double target) {
  InterceptSolve out;
  double lo = -kInterceptBound;
  double hi = kInterceptBound;
  for (int step = 0; step < kInterceptSteps; ++step) {
    out.tau = 0.5 * (lo + hi);
    const double mean =
        dataflow::BlockedSum(ex, logodds.size(),
                             [&](size_t begin, size_t end) {
                               double m = 0.0;
                               for (size_t s = begin; s < end; ++s) {
                                 m += Sigmoid(logodds[s] + out.tau);
                               }
                               return m;
                             }) /
        static_cast<double>(logodds.size());
    ++out.sweeps;
    if (mean < target) {
      lo = out.tau;
    } else {
      hi = out.tau;
    }
  }
  return out;
}

InterceptSolve SolveIntercept(dataflow::Executor* ex,
                              std::span<const double> logodds, double target,
                              double warm_start) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  InterceptSolve out;
  // Decision known at both ends: mean(a) < target, !(mean(b) < target).
  double a = -kInf;
  double b = kInf;
  const auto sweep = [&](double tau) {
    const Sweep s = SweepAt(ex, logodds, tau);
    ++out.sweeps;
    if (s.mean < target) {
      a = std::max(a, tau);
    } else {
      b = std::min(b, tau);
    }
    return s;
  };
  // True once no midpoint the replay can meet lies strictly inside (a, b)
  // (every midpoint is within [-bound, bound]), or too few do to be worth
  // a Newton sweep.
  const auto settled = [&] {
    return a >= kInterceptBound || b <= -kInterceptBound ||
           b - a <= kBracketResolutions *
                        Resolution(std::max(std::fabs(a), std::fabs(b)));
  };

  // ---- Bracket: Newton from the warm start, each step pushed a little
  // past the root (by the step squared, the order of Newton's own error,
  // plus two Resolution()s for the rounding floor) so the iterates land on
  // alternating sides and close the bracket from both ends. ----
  double t = std::isfinite(warm_start)
                 ? Clamp(warm_start, -kInterceptBound, kInterceptBound)
                 : 0.0;
  bool last_below = false;
  int runs = 0;  // Consecutive sweeps on the same side.
  for (int k = 0; k < kMaxBracketSweeps; ++k) {
    const Sweep s = sweep(t);
    if (settled()) break;
    // Signed by the decision, not by target - mean: a mean equal to the
    // target decides "not below", so the root is at or below t.
    const bool below = s.mean < target;
    runs = k > 0 && below == last_below ? runs + 1 : 0;
    last_below = below;
    double next = std::numeric_limits<double>::quiet_NaN();
    if (s.slope > 0.0 && s.mean > 0.0 && s.mean < 1.0) {
      // Newton on logit(mean), which is close to linear in tau (exactly
      // so when every slot has the same logit): d logit(mean) / d tau =
      // slope / (mean (1 - mean)).
      const double step =
          std::fabs((std::log(target / (1.0 - target)) -
                     std::log(s.mean / (1.0 - s.mean))) *
                    (s.mean * (1.0 - s.mean) / s.slope));
      double move = step + (step < kOvershootBelow ? step * step : 0.0) +
                    2.0 * Resolution(t);
      // With both ends known, a step that failed to cross is inside the
      // rounding noise of the mean: widen each further one geometrically.
      if (a > -kInf && b < kInf) move = std::ldexp(move, std::min(runs, 60));
      next = Clamp(t + (below ? 1.0 : -1.0) * move, -kInterceptBound,
                   kInterceptBound);
    }
    if (!(next > a && next < b)) {
      // Newton left the bracket (or had no slope): halve the bracket, or
      // probe the far end of the search range when one side is still open.
      next = a == -kInf ? -kInterceptBound
             : b == kInf ? kInterceptBound
                         : 0.5 * (a + b);
    }
    t = next;
  }

  // ---- Replay: the literal bisection, sweeping only where the bracket
  // cannot decide. ----
  double lo = -kInterceptBound;
  double hi = kInterceptBound;
  for (int step = 0; step < kInterceptSteps; ++step) {
    out.tau = 0.5 * (lo + hi);
    const bool below = out.tau <= a   ? true
                       : out.tau >= b ? false
                                      : sweep(out.tau).mean < target;
    if (below) {
      lo = out.tau;
    } else {
      hi = out.tau;
    }
  }
  return out;
}

}  // namespace kbt::core
