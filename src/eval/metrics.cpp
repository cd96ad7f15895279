#include "eval/metrics.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/histogram.h"
#include "common/math.h"
#include "kbt/obs.h"

namespace kbt::eval {

double SquareLoss(const std::vector<double>& predicted,
                  const std::vector<double>& truth) {
  assert(predicted.size() == truth.size());
  if (predicted.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    total += SquaredError(predicted[i], truth[i]);
  }
  return total / static_cast<double>(predicted.size());
}

double WeightedDeviation(const std::vector<double>& predicted,
                         const std::vector<uint8_t>& truth) {
  assert(predicted.size() == truth.size());
  if (predicted.empty()) return 0.0;
  double weighted = 0.0;
  for (const CalibrationPoint& point : CalibrationCurve(predicted, truth)) {
    weighted += point.weight * SquaredError(point.predicted_mean,
                                            point.empirical_accuracy);
  }
  return weighted / static_cast<double>(predicted.size());
}

std::vector<PrPoint> PrCurve(const std::vector<double>& predicted,
                             const std::vector<uint8_t>& truth) {
  assert(predicted.size() == truth.size());
  std::vector<size_t> order(predicted.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&predicted](size_t a, size_t b) {
    return predicted[a] > predicted[b];
  });

  double total_positive = 0.0;
  for (uint8_t t : truth) total_positive += t;
  std::vector<PrPoint> curve;
  if (total_positive == 0.0 || predicted.empty()) return curve;

  double tp = 0.0;
  double seen = 0.0;
  for (size_t k = 0; k < order.size(); ++k) {
    tp += truth[order[k]];
    seen += 1.0;
    // Collapse ties: only emit when the next prediction differs.
    if (k + 1 < order.size() &&
        predicted[order[k + 1]] == predicted[order[k]]) {
      continue;
    }
    curve.push_back(PrPoint{tp / total_positive, tp / seen,
                            predicted[order[k]]});
  }
  return curve;
}

double AucPr(const std::vector<double>& predicted,
             const std::vector<uint8_t>& truth) {
  const std::vector<PrPoint> curve = PrCurve(predicted, truth);
  if (curve.empty()) return 0.0;
  // Average-precision style integration: sum precision * delta-recall over
  // the threshold sweep.
  double auc = 0.0;
  double prev_recall = 0.0;
  for (const PrPoint& p : curve) {
    auc += p.precision * (p.recall - prev_recall);
    prev_recall = p.recall;
  }
  return auc;
}

std::vector<CalibrationPoint> CalibrationCurve(
    const std::vector<double>& predicted, const std::vector<uint8_t>& truth) {
  assert(predicted.size() == truth.size());
  // One serial binning pass into plain per-bucket tallies; bucket b is
  // obs::Histogram's bucket b over the same edges.
  const std::vector<double> edges = WDevBucketEdges();
  std::vector<double> sums(edges.size(), 0.0);
  std::vector<double> hits(edges.size(), 0.0);
  std::vector<double> counts(edges.size(), 0.0);
  for (size_t i = 0; i < predicted.size(); ++i) {
    const size_t b = obs::BucketIndexFor(edges, predicted[i]);
    sums[b] += predicted[i];
    hits[b] += truth[i] ? 1.0 : 0.0;
    counts[b] += 1.0;
  }
  std::vector<CalibrationPoint> out;
  for (size_t b = 0; b < counts.size(); ++b) {
    const double n = counts[b];
    if (n <= 0.0) continue;
    out.push_back(CalibrationPoint{sums[b] / n, hits[b] / n, n});
  }
  return out;
}

}  // namespace kbt::eval
