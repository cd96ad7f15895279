#ifndef KBT_COMMON_HISTOGRAM_H_
#define KBT_COMMON_HISTOGRAM_H_

#include <vector>

namespace kbt {

/// Bucket edges for the paper's distribution figures (Figures 5, 6, 7) and
/// the WDev calibration buckets. Each returns strictly increasing edges to
/// construct an obs::Histogram from: bucket i covers [edges[i],
/// edges[i+1]) and a final catch-all bucket covers values >= the last edge.

/// The paper's Figure 5 x-axis for counts per URL/pattern: 1, 2, ..., 10,
/// 11-100, 100-1K, 1K-10K, 10K-100K, 100K-1M, >1M.
std::vector<double> TripleCountBucketEdges();

/// `n` equal-width buckets over [0, 1] (probabilities). The final bucket
/// includes 1.0.
std::vector<double> UniformProbabilityBucketEdges(int n);

/// The paper's non-uniform WDev buckets: [0,0.01)...[0.04,0.05),
/// [0.05,0.1)...[0.9,0.95), [0.95,0.96)...[0.99,1), [1,1].
std::vector<double> WDevBucketEdges();

}  // namespace kbt

#endif  // KBT_COMMON_HISTOGRAM_H_
