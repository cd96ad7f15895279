#include "core/value_layer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/math.h"
#include "common/mutex.h"
#include "kernels/kernels.h"

namespace kbt::core {

using extract::CompiledMatrix;

std::vector<uint8_t> SourceSupport(const CompiledMatrix& matrix,
                                   int min_support,
                                   const std::vector<uint8_t>& trusted) {
  std::vector<uint8_t> supported(matrix.num_sources(), 0);
  for (uint32_t w = 0; w < matrix.num_sources(); ++w) {
    const auto [b, e] = matrix.SourceSlots(w);
    const bool is_trusted = !trusted.empty() && trusted[w] != 0;
    supported[w] =
        (is_trusted || static_cast<int>(e - b) >= min_support) ? 1 : 0;
  }
  return supported;
}

std::vector<double> SlotPopularity(const CompiledMatrix& matrix) {
  std::vector<double> popularity(matrix.num_slots(), 0.0);
  for (size_t i = 0; i < matrix.num_items(); ++i) {
    const auto [b, e] = matrix.ItemSlots(i);
    std::unordered_map<uint32_t, double> counts;
    for (uint32_t s = b; s < e; ++s) counts[matrix.slot_value(s)] += 1.0;
    const double total = static_cast<double>(e - b);
    for (uint32_t s = b; s < e; ++s) {
      popularity[s] = counts[matrix.slot_value(s)] / total;
    }
  }
  return popularity;
}

int ItemNumFalse(const CompiledMatrix& matrix, int num_false_override,
                 size_t item) {
  return num_false_override >= 1 ? num_false_override
                                 : matrix.item_num_false(item);
}

ValueLayer::ValueLayer(const CompiledMatrix& matrix, ValueModel model,
                       int num_false_override,
                       const std::vector<uint8_t>& source_supported,
                       const std::vector<double>& slot_popularity)
    : matrix_(matrix),
      model_(model),
      num_false_override_(num_false_override) {
  const size_t num_slots = matrix.num_slots();
  const size_t num_items = matrix.num_items();
  if (num_items > 0) {
    uniform_n_ = ItemNumFalse(matrix, num_false_override, 0);
    for (size_t i = 1; i < num_items; ++i) {
      if (ItemNumFalse(matrix, num_false_override, i) != uniform_n_) {
        uniform_n_ = -1;
        break;
      }
    }
  }
  support_mask_.resize(num_slots);
  for (size_t s = 0; s < num_slots; ++s) {
    support_mask_[s] =
        source_supported[matrix.slot_source(s)] != 0 ? 1.0 : 0.0;
  }
  if (model == ValueModel::kPopAccu) {
    log_pop_.resize(num_slots);
    for (size_t s = 0; s < num_slots; ++s) {
      log_pop_[s] = SafeLog(slot_popularity[s]);
    }
  }
  src_vote_.resize(matrix.num_sources(), 0.0);
  slot_vi_.resize(num_slots);
  item_num_values_.resize(num_items);
  kernels::EmScratch vi_scratch;
  for (size_t i = 0; i < num_items; ++i) {
    const auto [b, e] = matrix.ItemSlots(i);
    item_num_values_[i] = kernels::BuildValueIndex(
        b, e, matrix.slot_values().data(), slot_vi_.data(), &vi_scratch);
  }
}

void ValueLayer::StageVotes(size_t item_begin, size_t item_end,
                            uint32_t slot_begin, uint32_t slot_end,
                            const std::vector<double>& accuracy,
                            const double* slot_weight, double* out) const {
  const uint32_t* sources = matrix_.slot_sources().data();
  if (model_ == ValueModel::kPopAccu) {
    kernels::StageVotesMaskedSub(support_mask_.data(), slot_weight, sources,
                                 src_vote_.data(), log_pop_.data(), slot_begin,
                                 slot_end, out);
  } else if (uniform_n_ >= 1) {
    kernels::StageVotesMasked(support_mask_.data(), slot_weight, sources,
                              src_vote_.data(), slot_begin, slot_end, out);
  } else {
    // Items disagree on n: the same vote expression, with one SourceVote
    // per slot at the item's own n.
    for (size_t i = item_begin; i < item_end; ++i) {
      const int n = ItemNumFalse(matrix_, num_false_override_, i);
      const auto [b, e] = matrix_.ItemSlots(i);
      for (uint32_t s = b; s < e; ++s) {
        out[s - slot_begin] = (support_mask_[s] * slot_weight[s]) *
                              SourceVote(accuracy[sources[s]], n);
      }
    }
  }
}

double ValueLayer::Run(const std::vector<double>& source_accuracy,
                       const double* slot_weight, const uint8_t* covered_mask,
                       dataflow::Executor* executor, double* slot_value_prob,
                       uint8_t* slot_covered, double* item_unobserved) {
  // Per-iteration vote table: ACCU memoizes SourceVote(A_w, n) (when one n
  // serves every item), POPACCU the log-odds of A_w.
  if (model_ == ValueModel::kPopAccu) {
    for (size_t w = 0; w < src_vote_.size(); ++w) {
      const double a = ClampProbability(source_accuracy[w]);
      src_vote_[w] = std::log(a / (1.0 - a));
    }
  } else if (uniform_n_ >= 1) {
    for (size_t w = 0; w < src_vote_.size(); ++w) {
      src_vote_[w] = SourceVote(source_accuracy[w], uniform_n_);
    }
  }

  double max_delta = 0.0;
  Mutex delta_mutex;
  dataflow::ForRange(executor, matrix_.num_items(), [&](size_t begin,
                                                        size_t end) {
    double local_delta = 0.0;
    kernels::EmScratch scratch;
    // Cache-blocked: stage votes for runs of items whose slots fit in one
    // kStageBlock sweep (items are slot-contiguous), then finish each item.
    size_t i = begin;
    while (i < end) {
      const uint32_t slot_b = matrix_.ItemSlots(i).first;
      uint32_t slot_e = matrix_.ItemSlots(i).second;
      size_t j = i + 1;
      while (j < end) {
        const uint32_t je = matrix_.ItemSlots(j).second;
        if (je - slot_b > kernels::kStageBlock) break;
        slot_e = je;
        ++j;
      }
      scratch.votes.resize(slot_e - slot_b);
      StageVotes(i, j, slot_b, slot_e, source_accuracy, slot_weight,
                 scratch.votes.data());
      for (; i < j; ++i) {
        const auto [b, e] = matrix_.ItemSlots(i);
        local_delta = std::max(
            local_delta,
            kernels::ItemValuePassIndexed(
                b, e, scratch.votes.data(), slot_b, covered_mask,
                slot_vi_.data(), item_num_values_[i],
                ItemNumFalse(matrix_, num_false_override_, i), slot_value_prob,
                slot_covered, &item_unobserved[i], &scratch));
      }
    }
    MutexLock lock(delta_mutex);
    max_delta = std::max(max_delta, local_delta);
  });
  return max_delta;
}

}  // namespace kbt::core
