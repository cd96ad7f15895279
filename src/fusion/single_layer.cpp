#include "fusion/single_layer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "common/math.h"
#include "common/mutex.h"
#include "kernels/kernels.h"

namespace kbt::fusion {

namespace {

using core::ValueModel;
using extract::CompiledMatrix;

void ForRange(dataflow::Executor* ex, size_t n,
              const std::function<void(size_t, size_t)>& fn) {
  if (ex != nullptr) {
    ex->ParallelForRanges(n, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

void ForGroups(dataflow::Executor* ex, size_t n,
               const std::function<void(size_t)>& fn) {
  if (ex != nullptr) {
    ex->ParallelForGroups(n, fn);
  } else {
    for (size_t g = 0; g < n; ++g) fn(g);
  }
}

}  // namespace

StatusOr<SingleLayerResult> SingleLayerModel::Run(
    const CompiledMatrix& matrix, const SingleLayerConfig& config,
    const std::vector<double>& initial_accuracy, dataflow::Executor* executor,
    dataflow::StageTimers* timers, const std::vector<uint8_t>& initial_trusted,
    const std::vector<float>* extraction_weights) {
  const size_t num_slots = matrix.num_slots();
  const size_t num_items = matrix.num_items();
  const uint32_t num_sources = matrix.num_sources();

  if (extraction_weights != nullptr &&
      extraction_weights->size() != matrix.num_extractions()) {
    return Status::InvalidArgument("extraction_weights size mismatch");
  }
  if (!initial_accuracy.empty() && initial_accuracy.size() != num_sources) {
    return Status::InvalidArgument("initial_accuracy size mismatch");
  }
  if (!initial_trusted.empty() && initial_trusted.size() != num_sources) {
    return Status::InvalidArgument("initial_trusted size mismatch");
  }
  if (config.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }

  const auto clampP = [&config](double p) {
    return Clamp(p, config.min_probability, config.max_probability);
  };

  SingleLayerResult r;
  r.source_accuracy.assign(num_sources, config.default_accuracy);
  if (!initial_accuracy.empty()) {
    for (uint32_t s = 0; s < num_sources; ++s) {
      r.source_accuracy[s] = clampP(initial_accuracy[s]);
    }
  }
  r.source_supported.assign(num_sources, 0);
  for (uint32_t w = 0; w < num_sources; ++w) {
    const auto [b, e] = matrix.SourceSlots(w);
    const bool trusted = !initial_trusted.empty() && initial_trusted[w] != 0;
    r.source_supported[w] =
        (trusted || static_cast<int>(e - b) >= config.min_source_support)
            ? 1
            : 0;
  }
  r.slot_value_prob.assign(num_slots, 0.5);
  r.slot_covered.assign(num_slots, 0);
  r.item_unobserved_value_prob.assign(num_items, 0.0);

  // Claim weight per slot: max extraction confidence (the provenance's own
  // confidence in the claim), or a 0/1 threshold. With extraction weights,
  // each edge's effective (post-threshold) confidence is scaled before the
  // max — so a slot whose freshest edge decayed carries a weaker claim; the
  // null-weight loop is kept verbatim so that path stays bit-for-bit.
  std::vector<double> claim_weight(num_slots, 0.0);
  for (size_t s = 0; s < num_slots; ++s) {
    const auto [eb, ee] = matrix.SlotExtractions(s);
    if (extraction_weights == nullptr) {
      float best = 0.0f;
      for (uint32_t e = eb; e < ee; ++e) {
        best = std::max(best, matrix.ext_conf()[e]);
      }
      claim_weight[s] = config.use_confidence_weights
                            ? best
                            : (best > config.confidence_threshold ? 1.0 : 0.0);
    } else {
      float best = 0.0f;
      for (uint32_t e = eb; e < ee; ++e) {
        const float raw = matrix.ext_conf()[e];
        const float eff =
            config.use_confidence_weights
                ? raw
                : (raw > config.confidence_threshold ? 1.0f : 0.0f);
        best = std::max(best, eff * (*extraction_weights)[e]);
      }
      claim_weight[s] = best;
    }
  }

  // POPACCU popularity.
  std::vector<double> slot_popularity;
  if (config.value_model == ValueModel::kPopAccu) {
    slot_popularity.resize(num_slots, 0.0);
    for (size_t i = 0; i < num_items; ++i) {
      const auto [b, e] = matrix.ItemSlots(i);
      std::unordered_map<uint32_t, double> counts;
      for (uint32_t s = b; s < e; ++s) counts[matrix.slot_value(s)] += 1.0;
      const double total = static_cast<double>(e - b);
      for (uint32_t s = b; s < e; ++s) {
        slot_popularity[s] = counts[matrix.slot_value(s)] / total;
      }
    }
  }

  // ---- Kernel streams (fixed across iterations) ----
  const kernels::Kind kind = config.kernel;

  // Per-slot coverage gate of the E step; the structure never changes, so
  // the mask is computed once and shared by both kernel kinds.
  std::vector<uint8_t> covered_mask(num_slots, 0);
  for (size_t s = 0; s < num_slots; ++s) {
    covered_mask[s] = (r.source_supported[matrix.slot_source(s)] != 0 &&
                       claim_weight[s] > 0.0)
                          ? 1
                          : 0;
  }

  // The vectorized kind memoizes the per-source vote (one SourceVote/log
  // per source per iteration instead of one per slot). That needs a single
  // n across items; with per-item schema n's the memo only applies when
  // they all agree, otherwise the staged path falls back to per-slot votes.
  int uniform_n = config.num_false_override >= 1 ? config.num_false_override
                                                 : -1;
  if (uniform_n < 1 && num_items > 0) {
    uniform_n = matrix.item_num_false(0);
    for (size_t i = 1; i < num_items; ++i) {
      if (matrix.item_num_false(i) != uniform_n) {
        uniform_n = -1;
        break;
      }
    }
  }
  const bool use_staged =
      kind == kernels::Kind::kVectorized && uniform_n >= 1;

  // SoA streams of the staged path. All values are bit-identical to what
  // the scalar reference computes inline: the same functions on the same
  // inputs, evaluated once instead of per slot.
  std::vector<double> support_mask;
  std::vector<double> log_pop;
  std::vector<double> src_vote;
  std::vector<uint32_t> slot_vi;
  std::vector<uint32_t> item_num_values;
  if (use_staged) {
    support_mask.resize(num_slots);
    for (size_t s = 0; s < num_slots; ++s) {
      support_mask[s] =
          r.source_supported[matrix.slot_source(s)] != 0 ? 1.0 : 0.0;
    }
    if (config.value_model == ValueModel::kPopAccu) {
      log_pop.resize(num_slots);
      for (size_t s = 0; s < num_slots; ++s) {
        log_pop[s] = SafeLog(slot_popularity[s]);
      }
    }
    src_vote.resize(num_sources, 0.0);
    // The value grouping is a pure function of the static slot layout:
    // discover it once here instead of per item, per iteration.
    slot_vi.resize(num_slots);
    item_num_values.resize(num_items);
    kernels::EmScratch vi_scratch;
    for (size_t i = 0; i < num_items; ++i) {
      const auto [b, e] = matrix.ItemSlots(i);
      item_num_values[i] = kernels::BuildValueIndex(
          b, e, matrix.slot_values().data(), slot_vi.data(), &vi_scratch);
    }
  }

  Mutex delta_mutex;
  for (int iteration = 1; iteration <= config.max_iterations; ++iteration) {
    double max_delta = 0.0;

    if (use_staged) {
      // Per-iteration vote table: kAccu stages claim * SourceVote(A_w, n),
      // POPACCU stages claim * (log-odds(A_w) - log popularity).
      if (config.value_model == ValueModel::kAccu) {
        for (uint32_t w = 0; w < num_sources; ++w) {
          src_vote[w] = SourceVote(r.source_accuracy[w], uniform_n);
        }
      } else {
        for (uint32_t w = 0; w < num_sources; ++w) {
          const double a = ClampProbability(r.source_accuracy[w]);
          src_vote[w] = std::log(a / (1.0 - a));
        }
      }
    }

    // ---- E step: p(V_d | X, A), Eq. 2 ----
    {
      dataflow::StageTimers::Scope t(timers, "SL.TriplePr");
      ForRange(executor, num_items, [&](size_t begin, size_t end) {
        double local_delta = 0.0;
        kernels::EmScratch scratch;
        if (use_staged) {
          // Cache-blocked: stage votes for runs of items whose slots fit in
          // one kStageBlock sweep (items are slot-contiguous), then finish
          // each item through the kind-dispatched ItemValuePass.
          size_t i = begin;
          while (i < end) {
            const uint32_t slot_b = matrix.ItemSlots(i).first;
            uint32_t slot_e = matrix.ItemSlots(i).second;
            size_t j = i + 1;
            while (j < end) {
              const uint32_t je = matrix.ItemSlots(j).second;
              if (je - slot_b > kernels::kStageBlock) break;
              slot_e = je;
              ++j;
            }
            scratch.votes.resize(slot_e - slot_b);
            if (config.value_model == ValueModel::kAccu) {
              kernels::StageVotesMasked(
                  support_mask.data(), claim_weight.data(),
                  matrix.slot_sources().data(), src_vote.data(), slot_b,
                  slot_e, scratch.votes.data());
            } else {
              kernels::StageVotesMaskedSub(
                  support_mask.data(), claim_weight.data(),
                  matrix.slot_sources().data(), src_vote.data(),
                  log_pop.data(), slot_b, slot_e, scratch.votes.data());
            }
            for (; i < j; ++i) {
              const auto [b, e] = matrix.ItemSlots(i);
              local_delta = std::max(
                  local_delta,
                  kernels::ItemValuePassIndexed(
                      b, e, scratch.votes.data(), slot_b,
                      covered_mask.data(), slot_vi.data(),
                      item_num_values[i], uniform_n,
                      r.slot_value_prob.data(), r.slot_covered.data(),
                      &r.item_unobserved_value_prob[i], &scratch));
            }
          }
        } else {
          // Scalar reference: per-slot votes exactly as the paper's Eq. 2
          // transcription; the per-item normalization is the kind-dispatched
          // ItemValuePass (its reference write-back — bit-identical to the
          // memoized one the staged path uses).
          for (size_t i = begin; i < end; ++i) {
            const auto [b, e] = matrix.ItemSlots(i);
            const int n = config.num_false_override >= 1
                              ? config.num_false_override
                              : matrix.item_num_false(i);
            scratch.votes.resize(e - b);
            for (uint32_t s = b; s < e; ++s) {
              const uint32_t w = matrix.slot_source(s);
              double vote = 0.0;
              if (r.source_supported[w] && claim_weight[s] > 0.0) {
                if (config.value_model == ValueModel::kAccu) {
                  vote = claim_weight[s] * SourceVote(r.source_accuracy[w], n);
                } else {
                  const double a = ClampProbability(r.source_accuracy[w]);
                  vote = claim_weight[s] * (std::log(a / (1.0 - a)) -
                                            SafeLog(slot_popularity[s]));
                }
              }
              scratch.votes[s - b] = vote;
            }
            local_delta = std::max(
                local_delta,
                kernels::ItemValuePass(
                    kind, b, e, scratch.votes.data(), b, covered_mask.data(),
                    matrix.slot_values().data(), n, r.slot_value_prob.data(),
                    r.slot_covered.data(), &r.item_unobserved_value_prob[i],
                    &scratch));
          }
        }
        MutexLock lock(delta_mutex);
        max_delta = std::max(max_delta, local_delta);
      });
    }

    // ---- M step: A_s, Eq. 4 ----
    {
      dataflow::StageTimers::Scope t(timers, "SL.SrcAccu");
      ForGroups(executor, num_sources, [&](size_t w) {
        if (!r.source_supported[w]) return;
        const auto [b, e] = matrix.SourceSlots(static_cast<uint32_t>(w));
        const kernels::Tally tally = kernels::TallyIndexed(
            matrix.source_slot_index().data() + b, e - b, claim_weight.data(),
            r.slot_value_prob.data());
        if (tally.den > 1e-12) {
          r.source_accuracy[w] = clampP(tally.num / tally.den);
        }
      });
    }

    r.iterations = iteration;
    if (max_delta < config.convergence_tol) {
      r.converged = true;
      break;
    }
  }

  return r;
}

std::vector<double> AccuracyByWebsite(const extract::CompiledMatrix& matrix,
                                      const std::vector<double>& slot_probs,
                                      uint32_t num_websites,
                                      double default_accuracy) {
  std::vector<double> sums(num_websites, 0.0);
  std::vector<double> counts(num_websites, 0.0);
  for (size_t s = 0; s < matrix.num_slots(); ++s) {
    const uint32_t site = matrix.slot_website(s);
    if (site >= num_websites) continue;
    sums[site] += slot_probs[s];
    counts[site] += 1.0;
  }
  std::vector<double> out(num_websites, default_accuracy);
  for (uint32_t w = 0; w < num_websites; ++w) {
    if (counts[w] > 0.0) out[w] = sums[w] / counts[w];
  }
  return out;
}

}  // namespace kbt::fusion
