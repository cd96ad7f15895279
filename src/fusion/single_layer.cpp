#include "fusion/single_layer.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/math.h"
#include "common/mutex.h"
#include "core/value_layer.h"
#include "kernels/kernels.h"

namespace kbt::fusion {

using core::ValueModel;
using extract::CompiledMatrix;

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
  r.source_supported = core::SourceSupport(matrix, config.min_source_support,
                                          initial_trusted);
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

  std::vector<double> slot_popularity;
  if (config.value_model == ValueModel::kPopAccu) {
    slot_popularity = core::SlotPopularity(matrix);
  }

  // Per-slot coverage gate of the E step; the structure never changes, so
  // the mask is computed once and shared by both kernel kinds.
  std::vector<uint8_t> covered_mask(num_slots, 0);
  for (size_t s = 0; s < num_slots; ++s) {
    covered_mask[s] = (r.source_supported[matrix.slot_source(s)] != 0 &&
                       claim_weight[s] > 0.0)
                          ? 1
                          : 0;
  }

  std::optional<core::ValueLayer> value_layer;
  if (config.kernel == kernels::Kind::kVectorized) {
    value_layer.emplace(matrix, config.value_model, config.num_false_override,
                        r.source_supported, slot_popularity);
  }

  Mutex delta_mutex;
  for (int iteration = 1; iteration <= config.max_iterations; ++iteration) {
    double max_delta = 0.0;

    // ---- E step: p(V_d | X, A), Eq. 2 ----
    {
      dataflow::StageTimers::Scope t(timers, "SL.TriplePr");
      if (value_layer) {
        max_delta = value_layer->Run(
            r.source_accuracy, claim_weight.data(), covered_mask.data(),
            executor, r.slot_value_prob.data(), r.slot_covered.data(),
            r.item_unobserved_value_prob.data());
      } else {
        // Scalar reference: per-slot votes exactly as the paper's Eq. 2
        // transcription, each item finished by the reference ItemValuePass.
        dataflow::ForRange(executor, num_items, [&](size_t begin, size_t end) {
          double local_delta = 0.0;
          kernels::EmScratch scratch;
          for (size_t i = begin; i < end; ++i) {
            const auto [b, e] = matrix.ItemSlots(i);
            const int n =
                core::ItemNumFalse(matrix, config.num_false_override, i);
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
                    b, e, scratch.votes.data(), b, covered_mask.data(),
                    matrix.slot_values().data(), n, r.slot_value_prob.data(),
                    r.slot_covered.data(), &r.item_unobserved_value_prob[i],
                    &scratch));
          }
          MutexLock lock(delta_mutex);
          max_delta = std::max(max_delta, local_delta);
        });
      }
    }

    // ---- M step: A_s, Eq. 4 ----
    {
      dataflow::StageTimers::Scope t(timers, "SL.SrcAccu");
      dataflow::ForGroups(executor, num_sources, [&](size_t w) {
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
