#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/math.h"
#include "kernels/kernel_kind.h"
#include "kernels/kernels.h"

/// `#pragma omp simd`-style hint for the elementwise staging loops: tells the
/// auto-vectorizer the loop is dependence-free. Elementwise staging has no
/// reduction to reassociate and the module compiles with -ffp-contract=off,
/// so auto-vectorizing these loops cannot change results.
#if defined(_OPENMP)
#define KBT_KERNELS_SIMD_LOOP _Pragma("omp simd")
#elif defined(__clang__)
#define KBT_KERNELS_SIMD_LOOP _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define KBT_KERNELS_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define KBT_KERNELS_SIMD_LOOP
#endif

namespace kbt::kernels {

Kind DefaultKind() {
#if defined(KBT_KERNELS_DEFAULT_SCALAR)
  return Kind::kScalarReference;
#else
  return Kind::kVectorized;
#endif
}

std::string_view KindName(Kind kind) {
  switch (kind) {
    case Kind::kScalarReference:
      return "scalar_reference";
    case Kind::kVectorized:
      return "vectorized";
  }
  return "unknown";
}

namespace {

/// The contract's lane combine: (l0 + l1) + (l2 + l3). Every tally funnels
/// through this exact expression.
inline double CombineLanes(const double lanes[kTallyLanes]) {
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

Tally TallyIndexed(const uint32_t* idx, size_t n, const double* w,
                   const double* p) {
  double num[kTallyLanes] = {0.0, 0.0, 0.0, 0.0};
  double den[kTallyLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t k = 0;
  for (; k + kTallyLanes <= n; k += kTallyLanes) {
    for (size_t j = 0; j < kTallyLanes; ++j) {
      const uint32_t s = idx[k + j];
      num[j] += w[s] * p[s];
      den[j] += w[s];
    }
  }
  for (size_t j = 0; k < n; ++k, ++j) {
    const uint32_t s = idx[k];
    num[j] += w[s] * p[s];
    den[j] += w[s];
  }
  return Tally{CombineLanes(num), CombineLanes(den)};
}

Tally TallyMap(const uint32_t* idx, size_t n, const double* c,
               const double* p) {
  double num[kTallyLanes] = {0.0, 0.0, 0.0, 0.0};
  double den[kTallyLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t k = 0;
  for (; k + kTallyLanes <= n; k += kTallyLanes) {
    for (size_t j = 0; j < kTallyLanes; ++j) {
      const uint32_t s = idx[k + j];
      const double m = c[s] > 0.5 ? 1.0 : 0.0;
      num[j] += m * p[s];
      den[j] += m;
    }
  }
  for (size_t j = 0; k < n; ++k, ++j) {
    const uint32_t s = idx[k];
    const double m = c[s] > 0.5 ? 1.0 : 0.0;
    num[j] += m * p[s];
    den[j] += m;
  }
  return Tally{CombineLanes(num), CombineLanes(den)};
}

Tally TallyEdges(const uint32_t* edges, size_t n, const float* conf,
                 const uint32_t* edge_slot, const double* c) {
  double num[kTallyLanes] = {0.0, 0.0, 0.0, 0.0};
  double den[kTallyLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t k = 0;
  for (; k + kTallyLanes <= n; k += kTallyLanes) {
    for (size_t j = 0; j < kTallyLanes; ++j) {
      const uint32_t e = edges[k + j];
      const double w = static_cast<double>(conf[e]);
      num[j] += w * c[edge_slot[e]];
      den[j] += w;
    }
  }
  for (size_t j = 0; k < n; ++k, ++j) {
    const uint32_t e = edges[k];
    const double w = static_cast<double>(conf[e]);
    num[j] += w * c[edge_slot[e]];
    den[j] += w;
  }
  return Tally{CombineLanes(num), CombineLanes(den)};
}

void StageVotesMasked(const double* mask, const double* weight,
                      const uint32_t* index, const double* table, size_t begin,
                      size_t end, double* out) {
  KBT_KERNELS_SIMD_LOOP
  for (size_t i = begin; i < end; ++i) {
    out[i - begin] = (mask[i] * weight[i]) * table[index[i]];
  }
}

void StageVotesMaskedSub(const double* mask, const double* weight,
                         const uint32_t* index, const double* table,
                         const double* sub, size_t begin, size_t end,
                         double* out) {
  KBT_KERNELS_SIMD_LOOP
  for (size_t i = begin; i < end; ++i) {
    out[i - begin] = (mask[i] * weight[i]) * (table[index[i]] - sub[i]);
  }
}

void StageEdgeTerms(const float* conf, const uint32_t* group,
                    const double* net, size_t begin, size_t end, double* out) {
  KBT_KERNELS_SIMD_LOOP
  for (size_t e = begin; e < end; ++e) {
    out[e - begin] = static_cast<double>(conf[e]) * net[group[e]];
  }
}

double ItemValuePass(uint32_t slot_begin, uint32_t slot_end,
                     const double* votes, size_t votes_offset,
                     const uint8_t* covered_mask, const uint32_t* slot_values,
                     int num_false, double* slot_value_prob,
                     uint8_t* slot_covered, double* item_unobserved,
                     EmScratch* scratch) {
  auto& values = scratch->values;
  auto& value_votes = scratch->value_votes;
  auto& log_terms = scratch->log_terms;
  values.clear();
  value_votes.clear();
  bool covered = false;
  for (uint32_t s = slot_begin; s < slot_end; ++s) {
    covered |= covered_mask[s] != 0;
    const uint32_t v = slot_values[s];
    size_t vi = 0;
    for (; vi < values.size(); ++vi) {
      if (values[vi] == v) break;
    }
    if (vi == values.size()) {
      values.push_back(v);
      value_votes.push_back(0.0);
    }
    value_votes[vi] += votes[s - votes_offset];
  }

  const int unobserved =
      std::max(0, num_false + 1 - static_cast<int>(values.size()));
  log_terms.assign(value_votes.begin(), value_votes.end());
  if (unobserved > 0) {
    log_terms.push_back(std::log(static_cast<double>(unobserved)));
  }
  const double log_z = LogSumExp(log_terms);
  if (item_unobserved != nullptr) {
    *item_unobserved = unobserved > 0 ? std::exp(-log_z) : 0.0;
  }

  // Re-search the value list and exp per slot: the naive, obviously-correct
  // program the oracle is defined by.
  double delta = 0.0;
  for (uint32_t s = slot_begin; s < slot_end; ++s) {
    const uint32_t v = slot_values[s];
    size_t vi = 0;
    for (; vi < values.size(); ++vi) {
      if (values[vi] == v) break;
    }
    const double pv = std::exp(value_votes[vi] - log_z);
    delta = std::max(delta, std::fabs(pv - slot_value_prob[s]));
    slot_value_prob[s] = pv;
    if (slot_covered != nullptr) slot_covered[s] = covered ? 1 : 0;
  }
  return delta;
}

uint32_t BuildValueIndex(uint32_t slot_begin, uint32_t slot_end,
                         const uint32_t* slot_values, uint32_t* slot_vi,
                         EmScratch* scratch) {
  auto& values = scratch->values;
  values.clear();
  for (uint32_t s = slot_begin; s < slot_end; ++s) {
    const uint32_t v = slot_values[s];
    size_t vi = 0;
    for (; vi < values.size(); ++vi) {
      if (values[vi] == v) break;
    }
    if (vi == values.size()) values.push_back(v);
    slot_vi[s] = static_cast<uint32_t>(vi);
  }
  return static_cast<uint32_t>(values.size());
}

double ItemValuePassIndexed(uint32_t slot_begin, uint32_t slot_end,
                            const double* votes, size_t votes_offset,
                            const uint8_t* covered_mask,
                            const uint32_t* slot_vi, uint32_t num_values,
                            int num_false, double* slot_value_prob,
                            uint8_t* slot_covered, double* item_unobserved,
                            EmScratch* scratch) {
  auto& value_votes = scratch->value_votes;
  auto& log_terms = scratch->log_terms;
  value_votes.assign(num_values, 0.0);
  bool covered = false;
  // Same per-value accumulation order (slots ascending) as the grouping
  // scan of ItemValuePass, so the sums carry identical rounding.
  for (uint32_t s = slot_begin; s < slot_end; ++s) {
    covered |= covered_mask[s] != 0;
    value_votes[slot_vi[s]] += votes[s - votes_offset];
  }

  const int unobserved =
      std::max(0, num_false + 1 - static_cast<int>(num_values));
  log_terms.assign(value_votes.begin(), value_votes.end());
  if (unobserved > 0) {
    log_terms.push_back(std::log(static_cast<double>(unobserved)));
  }
  const double log_z = LogSumExp(log_terms);
  if (item_unobserved != nullptr) {
    *item_unobserved = unobserved > 0 ? std::exp(-log_z) : 0.0;
  }

  // exp once per DISTINCT value (in place over the vote accumulators), then
  // gather per slot: exp(value_votes[vi] - log_z) is the reference's
  // expression on the same inputs, so the posteriors are the same bits.
  for (size_t vi = 0; vi < value_votes.size(); ++vi) {
    value_votes[vi] = std::exp(value_votes[vi] - log_z);
  }
  double delta = 0.0;
  for (uint32_t s = slot_begin; s < slot_end; ++s) {
    const double pv = value_votes[slot_vi[s]];
    delta = std::max(delta, std::fabs(pv - slot_value_prob[s]));
    slot_value_prob[s] = pv;
    if (slot_covered != nullptr) slot_covered[s] = covered ? 1 : 0;
  }
  return delta;
}

}  // namespace kbt::kernels
