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
  const std::vector<double> edges = WDevBucketEdges();
  obs::Histogram sums(edges);
  obs::Histogram hits(edges);
  obs::Histogram counts(edges);
  for (size_t i = 0; i < predicted.size(); ++i) {
    sums.Add(predicted[i], predicted[i]);
    hits.Add(predicted[i], truth[i] ? 1.0 : 0.0);
    counts.Add(predicted[i], 1.0);
  }
  double weighted = 0.0;
  for (size_t b = 0; b < counts.num_buckets(); ++b) {
    const double n = counts.bucket_count(b);
    if (n <= 0.0) continue;
    const double mean_pred = sums.bucket_count(b) / n;
    const double accuracy = hits.bucket_count(b) / n;
    weighted += n * SquaredError(mean_pred, accuracy);
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
  const std::vector<double> edges = WDevBucketEdges();
  obs::Histogram sums(edges);
  obs::Histogram hits(edges);
  obs::Histogram counts(edges);
  for (size_t i = 0; i < predicted.size(); ++i) {
    sums.Add(predicted[i], predicted[i]);
    hits.Add(predicted[i], truth[i] ? 1.0 : 0.0);
    counts.Add(predicted[i], 1.0);
  }
  std::vector<CalibrationPoint> out;
  for (size_t b = 0; b < counts.num_buckets(); ++b) {
    const double n = counts.bucket_count(b);
    if (n <= 0.0) continue;
    out.push_back(CalibrationPoint{sums.bucket_count(b) / n,
                                   hits.bucket_count(b) / n, n});
  }
  return out;
}

}  // namespace kbt::eval
