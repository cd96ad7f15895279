#include "common/histogram.h"

#include <cassert>
#include <cstddef>
#include <vector>

namespace kbt {

std::vector<double> TripleCountBucketEdges() {
  std::vector<double> edges;
  for (int i = 1; i <= 10; ++i) edges.push_back(i);          // 1..10
  edges.push_back(11);                                        // 11-100
  edges.push_back(101);                                       // 100-1K
  edges.push_back(1001);                                      // 1K-10K
  edges.push_back(10001);                                     // 10K-100K
  edges.push_back(100001);                                    // 100K-1M
  edges.push_back(1000001);                                   // >1M
  return edges;
}

std::vector<double> UniformProbabilityBucketEdges(int n) {
  assert(n >= 1);
  std::vector<double> edges;
  edges.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    edges.push_back(static_cast<double>(i) / n);
  }
  return edges;
}

std::vector<double> WDevBucketEdges() {
  std::vector<double> edges;
  for (int i = 0; i < 5; ++i) edges.push_back(i * 0.01);       // [0,0.05) by 0.01
  for (int i = 1; i <= 18; ++i) edges.push_back(0.05 * i);     // [0.05,0.95) by 0.05
  for (int i = 0; i < 5; ++i) edges.push_back(0.95 + i * 0.01);  // [0.95,1) by 0.01
  edges.push_back(1.0);                                        // [1,1]
  return edges;
}

}  // namespace kbt
