#ifndef KBT_CORE_VALUE_LAYER_H_
#define KBT_CORE_VALUE_LAYER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/multilayer_config.h"
#include "dataflow/parallel.h"
#include "extract/observation_matrix.h"

namespace kbt::core {

/// The ACCU / POPACCU value layer both EM models run: the single-layer
/// E step (Section 2.2, Eq. 2) and multi-layer Stage II (Eqs. 21/25, each
/// vote also weighted by p(C|X)). Each model keeps its own scalar-reference
/// loop, the oracle transcription of its equation.

/// Per-source participation flag: 1 when the source is trusted (its
/// accuracy was anchored by a gold standard) or claims at least
/// `min_support` slots (the paper's coverage rule, Section 5.1.2).
/// `trusted` is empty or holds one flag per source.
std::vector<uint8_t> SourceSupport(const extract::CompiledMatrix& matrix,
                                   int min_support,
                                   const std::vector<uint8_t>& trusted);

/// POPACCU's empirical value popularity: per slot, the share of its item's
/// slots that claim the same value.
std::vector<double> SlotPopularity(const extract::CompiledMatrix& matrix);

/// The n of Eq. 1 for `item`: `num_false_override` when >= 1, otherwise the
/// item's schema n.
int ItemNumFalse(const extract::CompiledMatrix& matrix, int num_false_override,
                 size_t item);

/// The vectorized kind's value pass. Construction builds the static memo
/// streams (0/1 source support, log-popularity, the per-item value index);
/// each Run refreshes the per-source vote table, stages
/// (support * weight) * vote over cache-blocked runs of items and finishes
/// each item through kernels::ItemValuePassIndexed. Every value is the
/// reference loops' expression on the same inputs, so the bits match.
class ValueLayer {
 public:
  /// `slot_popularity` is read for POPACCU only. The matrix must outlive
  /// the layer.
  ValueLayer(const extract::CompiledMatrix& matrix, ValueModel model,
             int num_false_override,
             const std::vector<uint8_t>& source_supported,
             const std::vector<double>& slot_popularity);

  /// One pass over every item. `slot_weight[s]` scales slot s's vote (the
  /// single-layer claim weight, or p(C|X) or its MAP threshold);
  /// `covered_mask[s]` is slot s's coverage contribution. Returns the max
  /// |delta p| over all slots.
  double Run(const std::vector<double>& source_accuracy,
             const double* slot_weight, const uint8_t* covered_mask,
             dataflow::Executor* executor, double* slot_value_prob,
             uint8_t* slot_covered, double* item_unobserved);

 private:
  /// Stages the votes of items [item_begin, item_end), whose slots are
  /// [slot_begin, slot_end), into `out` (indexed from slot_begin).
  void StageVotes(size_t item_begin, size_t item_end, uint32_t slot_begin,
                  uint32_t slot_end, const std::vector<double>& accuracy,
                  const double* slot_weight, double* out) const;

  const extract::CompiledMatrix& matrix_;
  const ValueModel model_;
  const int num_false_override_;
  /// The n shared by every item, or -1 when items disagree. Only the ACCU
  /// vote table depends on it; without one, the ACCU vote is computed per
  /// slot with the item's own n.
  int uniform_n_ = -1;
  std::vector<double> support_mask_;
  std::vector<double> log_pop_;
  std::vector<double> src_vote_;
  std::vector<uint32_t> slot_vi_;
  std::vector<uint32_t> item_num_values_;
};

}  // namespace kbt::core

#endif  // KBT_CORE_VALUE_LAYER_H_
