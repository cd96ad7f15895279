#ifndef KBT_TESTS_SUPPORT_KERNEL_CONTRACT_H_
#define KBT_TESTS_SUPPORT_KERNEL_CONTRACT_H_

#include <cstddef>
#include <cstdint>

#include "kernels/kernels.h"

/// Independent transcriptions of the kernels.h numeric contract, for tests
/// that check the staging and tally primitives against it. They share no
/// code with src/kernels: each tally is one plain loop that drops element k
/// into lane k % 4 and combines the lanes as (l0 + l1) + (l2 + l3), and each
/// staging formula is written out per element. Every product is its own
/// statement, so no compiler's default contraction mode can fuse it into the
/// following add (the kernels themselves build with -ffp-contract=off).
namespace kbt::testing {

/// The contract's lane count, spelled out rather than read from the kernels
/// so a change to kernels::kTallyLanes fails here first.
inline constexpr size_t kContractLanes = 4;
static_assert(kernels::kTallyLanes == kContractLanes);

/// Four positional accumulators per sum plus the contract's combine.
class LaneSums {
 public:
  void Add(size_t k, double num_term, double den_term) {
    num_[k % kContractLanes] += num_term;
    den_[k % kContractLanes] += den_term;
  }
  kernels::Tally Combine() const {
    return kernels::Tally{(num_[0] + num_[1]) + (num_[2] + num_[3]),
                          (den_[0] + den_[1]) + (den_[2] + den_[3])};
  }

 private:
  double num_[kContractLanes] = {0.0, 0.0, 0.0, 0.0};
  double den_[kContractLanes] = {0.0, 0.0, 0.0, 0.0};
};

/// TallyIndexed: num = sum w[s] * p[s], den = sum w[s] over s = idx[k].
inline kernels::Tally ContractTallyIndexed(const uint32_t* idx, size_t n,
                                           const double* w, const double* p) {
  LaneSums sums;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t s = idx[k];
    const double wp = w[s] * p[s];
    sums.Add(k, wp, w[s]);
  }
  return sums.Combine();
}

/// TallyMap: the mask [c[s] > 0.5] as 1.0 / 0.0 in place of the weight;
/// masked-out elements still add +0.0 to their lane.
inline kernels::Tally ContractTallyMap(const uint32_t* idx, size_t n,
                                       const double* c, const double* p) {
  LaneSums sums;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t s = idx[k];
    const double m = c[s] > 0.5 ? 1.0 : 0.0;
    const double mp = m * p[s];
    sums.Add(k, mp, m);
  }
  return sums.Combine();
}

/// TallyEdges: conf widened float -> double, times c at the edge's slot.
inline kernels::Tally ContractTallyEdges(const uint32_t* edges, size_t n,
                                         const float* conf,
                                         const uint32_t* edge_slot,
                                         const double* c) {
  LaneSums sums;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t e = edges[k];
    const double w = static_cast<double>(conf[e]);
    const double wc = w * c[edge_slot[e]];
    sums.Add(k, wc, w);
  }
  return sums.Combine();
}

// Per-element staging formulas (element i of the swept range).

inline double ContractVoteMasked(const double* mask, const double* weight,
                                 const uint32_t* index, const double* table,
                                 size_t i) {
  return (mask[i] * weight[i]) * table[index[i]];
}

inline double ContractVoteMaskedSub(const double* mask, const double* weight,
                                    const uint32_t* index, const double* table,
                                    const double* sub, size_t i) {
  return (mask[i] * weight[i]) * (table[index[i]] - sub[i]);
}

inline double ContractEdgeTerm(const float* conf, const uint32_t* group,
                               const double* net, size_t e) {
  return static_cast<double>(conf[e]) * net[group[e]];
}

}  // namespace kbt::testing

#endif  // KBT_TESTS_SUPPORT_KERNEL_CONTRACT_H_
