#include "core/multilayer_model.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/math.h"
#include "common/mutex.h"
#include "core/calibration.h"
#include "core/value_layer.h"
#include "kernels/kernels.h"

namespace kbt::core {

namespace {

using extract::CompiledMatrix;
using extract::ExtractorScope;
using extract::kAnyScope;

uint64_t PackPredSite(uint32_t pred, uint32_t site) {
  return (static_cast<uint64_t>(pred) << 32) | site;
}

/// Per-scope additive totals of the absence universe: each extractor group
/// deposits its weighted absence vote into the bucket matching its scope;
/// a slot's total absence evidence is the SUM over all four bucket levels
/// covering it.
class ScopeTable {
 public:
  void Clear() {
    global_ = 0.0;
    by_pred_.clear();
    by_site_.clear();
    by_pred_site_.clear();
  }

  /// Deposits `v` into the bucket identified by `scope` (group-side use).
  void AddForScope(const ExtractorScope& scope, double v) {
    const bool any_pred = scope.predicate == kAnyScope;
    const bool any_site = scope.website == kAnyScope;
    if (any_pred && any_site) {
      global_ += v;
    } else if (!any_pred && any_site) {
      by_pred_[scope.predicate] += v;
    } else if (any_pred && !any_site) {
      by_site_[scope.website] += v;
    } else {
      by_pred_site_[PackPredSite(scope.predicate, scope.website)] += v;
    }
  }

  /// Total over all buckets covering a slot at (pred, site).
  double SumCovering(uint32_t pred, uint32_t site) const {
    double total = global_;
    if (const auto it = by_pred_.find(pred); it != by_pred_.end()) {
      total += it->second;
    }
    if (const auto it = by_site_.find(site); it != by_site_.end()) {
      total += it->second;
    }
    if (const auto it = by_pred_site_.find(PackPredSite(pred, site));
        it != by_pred_site_.end()) {
      total += it->second;
    }
    return total;
  }

 private:
  double global_ = 0.0;
  std::unordered_map<uint32_t, double> by_pred_;
  std::unordered_map<uint32_t, double> by_site_;
  std::unordered_map<uint64_t, double> by_pred_site_;
};

/// Per-scope mass of p(C=1|X) over slots, the recall denominator of
/// Eq. 33: each slot deposits into the global bucket, its predicate's, its
/// website's and its (predicate, website) pair's; a group reads the ONE
/// bucket matching its scope. Held densely, one accumulator per bucket in
/// a flat array indexed by predicate, website and pair id, so a slot costs
/// four indexed adds, not four hash lookups. Every accumulator still adds
/// its slots' values in slot order, so each total keeps its bits.
class SlotMass {
 public:
  /// `slot_pair[s]` is slot s's pair id; `pair_ids` maps each packed
  /// (predicate, website) to its pair id.
  SlotMass(const CompiledMatrix& matrix, const std::vector<uint32_t>& slot_pair,
           const std::unordered_map<uint64_t, uint32_t>& pair_ids)
      : matrix_(matrix), slot_pair_(slot_pair) {
    uint32_t num_preds = 0;
    uint32_t num_sites = 0;
    for (size_t s = 0; s < matrix.num_slots(); ++s) {
      num_preds = std::max(num_preds, matrix.slot_predicate(s) + 1);
      num_sites = std::max(num_sites, matrix.slot_website(s) + 1);
    }
    site_base_ = 1 + num_preds;
    pair_base_ = site_base_ + num_sites;
    // One bucket past the pairs stays 0: the scopes no slot falls in.
    const size_t empty = pair_base_ + pair_ids.size();
    mass_.assign(empty + 1, 0.0);
    group_bucket_.resize(matrix.num_extractor_groups());
    for (uint32_t g = 0; g < matrix.num_extractor_groups(); ++g) {
      const ExtractorScope& scope = matrix.extractor_scope(g);
      const bool any_pred = scope.predicate == kAnyScope;
      const bool any_site = scope.website == kAnyScope;
      size_t bucket = empty;
      if (any_pred && any_site) {
        bucket = 0;
      } else if (any_site) {
        if (scope.predicate < num_preds) bucket = 1 + scope.predicate;
      } else if (any_pred) {
        if (scope.website < num_sites) bucket = site_base_ + scope.website;
      } else if (const auto it = pair_ids.find(
                     PackPredSite(scope.predicate, scope.website));
                 it != pair_ids.end()) {
        bucket = pair_base_ + it->second;
      }
      group_bucket_[g] = bucket;
    }
  }

  /// Re-accumulates every bucket from the per-slot p(C=1|X).
  void Accumulate(const std::vector<double>& correct_prob) {
    std::fill(mass_.begin(), mass_.end(), 0.0);
    for (size_t s = 0; s < correct_prob.size(); ++s) {
      const double v = correct_prob[s];
      mass_[0] += v;
      mass_[1 + matrix_.slot_predicate(s)] += v;
      mass_[site_base_ + matrix_.slot_website(s)] += v;
      mass_[pair_base_ + slot_pair_[s]] += v;
    }
  }

  /// The mass of the bucket matching group `g`'s scope.
  double ForGroup(uint32_t g) const { return mass_[group_bucket_[g]]; }

 private:
  const CompiledMatrix& matrix_;
  const std::vector<uint32_t>& slot_pair_;
  size_t site_base_ = 0;
  size_t pair_base_ = 0;
  std::vector<double> mass_;
  std::vector<size_t> group_bucket_;
};

}  // namespace

ExtractorVotes ComputeVotes(double recall, double q, double absence_weight) {
  ExtractorVotes v;
  v.presence = PresenceVote(recall, q);
  v.weighted_absence = absence_weight * AbsenceVote(recall, q);
  return v;
}

double UpdatedAlpha(double value_prob, double source_accuracy) {
  return value_prob * source_accuracy +
         (1.0 - value_prob) * (1.0 - source_accuracy);
}

StatusOr<MultiLayerResult> MultiLayerModel::Run(
    const CompiledMatrix& matrix, const MultiLayerConfig& config,
    const InitialQuality& initial, dataflow::Executor* executor,
    dataflow::StageTimers* timers,
    const std::vector<float>* extraction_weights) {
  const size_t num_slots = matrix.num_slots();
  const size_t num_items = matrix.num_items();
  const uint32_t num_sources = matrix.num_sources();
  const uint32_t num_groups = matrix.num_extractor_groups();

  if (extraction_weights != nullptr &&
      extraction_weights->size() != matrix.num_extractions()) {
    return Status::InvalidArgument(
        "extraction_weights size " +
        std::to_string(extraction_weights->size()) + " != num_extractions " +
        std::to_string(matrix.num_extractions()));
  }

  if (!initial.source_accuracy.empty() &&
      initial.source_accuracy.size() != num_sources) {
    return Status::InvalidArgument("initial source_accuracy size mismatch");
  }
  if (!initial.extractor_precision.empty() &&
      initial.extractor_precision.size() != num_groups) {
    return Status::InvalidArgument("initial extractor_precision size mismatch");
  }
  if (!initial.extractor_recall.empty() &&
      initial.extractor_recall.size() != num_groups) {
    return Status::InvalidArgument("initial extractor_recall size mismatch");
  }
  if (config.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }

  const auto clampP = [&config](double p) {
    return Clamp(p, config.min_probability, config.max_probability);
  };

  MultiLayerResult r;
  // ---- Parameter initialization (Section 3.1 / Section 5 smart init) ----
  r.source_accuracy.assign(num_sources, config.default_source_accuracy);
  if (!initial.source_accuracy.empty()) {
    for (uint32_t w = 0; w < num_sources; ++w) {
      r.source_accuracy[w] = clampP(initial.source_accuracy[w]);
    }
  }
  double default_recall = config.default_recall;
  double default_q = config.default_q;
  if (config.adaptive_initial_recall && initial.extractor_recall.empty() &&
      num_slots > 0) {
    // Method-of-moments starting point: match the initial R to the observed
    // extraction density so iteration 1's absence evidence is well-scaled
    // (see multilayer_config.h).
    ScopeTable universe;
    for (uint32_t g = 0; g < num_groups; ++g) {
      universe.AddForScope(matrix.extractor_scope(g), 1.0);
    }
    double applicable = 0.0;
    for (size_t s = 0; s < num_slots; ++s) {
      applicable +=
          universe.SumCovering(matrix.slot_predicate(s), matrix.slot_website(s));
    }
    const double mean_universe =
        std::max(1.0, applicable / static_cast<double>(num_slots));
    const double edges_per_slot =
        static_cast<double>(matrix.num_extractions()) /
        static_cast<double>(num_slots);
    default_recall = Clamp(edges_per_slot / mean_universe, 0.05,
                           config.default_recall);
    default_q = std::min(config.default_q, default_recall / 2.0);
  }
  r.extractor_recall.assign(num_groups, default_recall);
  if (!initial.extractor_recall.empty()) {
    for (uint32_t e = 0; e < num_groups; ++e) {
      r.extractor_recall[e] = clampP(initial.extractor_recall[e]);
    }
  }
  if (!initial.extractor_q.empty() &&
      initial.extractor_q.size() != num_groups) {
    return Status::InvalidArgument("initial extractor_q size mismatch");
  }
  r.extractor_q.assign(num_groups, default_q);
  r.extractor_precision.assign(num_groups, 0.0);
  if (!initial.extractor_q.empty()) {
    // Direct Q initialization (paper examples / default-style init).
    for (uint32_t e = 0; e < num_groups; ++e) {
      r.extractor_q[e] = clampP(initial.extractor_q[e]);
      r.extractor_precision[e] = PrecisionFromQ(
          r.extractor_q[e], r.extractor_recall[e], config.gamma);
    }
  } else if (!initial.extractor_precision.empty()) {
    for (uint32_t e = 0; e < num_groups; ++e) {
      r.extractor_precision[e] = clampP(initial.extractor_precision[e]);
      r.extractor_q[e] = QFromPrecisionRecall(r.extractor_precision[e],
                                              r.extractor_recall[e],
                                              config.gamma);
    }
  } else {
    for (uint32_t e = 0; e < num_groups; ++e) {
      r.extractor_precision[e] = PrecisionFromQ(
          r.extractor_q[e], r.extractor_recall[e], config.gamma);
    }
  }

  if (!initial.source_trusted.empty() &&
      initial.source_trusted.size() != num_sources) {
    return Status::InvalidArgument("initial source_trusted size mismatch");
  }

  // ---- Support flags (static: structure does not change) ----
  r.source_supported = SourceSupport(matrix, config.min_source_support,
                                     initial.source_trusted);
  r.extractor_supported.assign(num_groups, 0);
  for (uint32_t g = 0; g < num_groups; ++g) {
    const auto [b, e] = matrix.ExtractorEdges(g);
    r.extractor_supported[g] =
        (static_cast<int>(e - b) >= config.min_extractor_support) ? 1 : 0;
  }

  // ---- Effective confidence per extraction edge (Section 3.5) ----
  // The optional extraction weight multiplies in *after* the thresholding
  // branch so decay also scales thresholded (0/1) confidences; a null
  // pointer leaves every edge untouched (bit-for-bit the unweighted path).
  std::vector<float> conf(matrix.num_extractions());
  for (size_t e = 0; e < conf.size(); ++e) {
    const float raw = matrix.ext_conf()[e];
    conf[e] = config.use_confidence_weights
                  ? raw
                  : (raw > config.confidence_threshold ? 1.0f : 0.0f);
    if (extraction_weights != nullptr) {
      conf[e] *= (*extraction_weights)[e];
    }
  }

  // ---- POPACCU empirical value popularity per slot ----
  std::vector<double> slot_popularity;
  if (config.value_model == ValueModel::kPopAccu) {
    slot_popularity = SlotPopularity(matrix);
  }

  // ---- Latent state ----
  r.slot_correct_prob.assign(num_slots, 0.5);
  r.slot_value_prob.assign(num_slots, 0.5);
  r.slot_alpha.assign(num_slots, config.initial_alpha);
  r.slot_covered.assign(num_slots, 0);
  r.item_unobserved_value_prob.assign(num_items, 0.0);

  std::vector<ExtractorVotes> votes(num_groups);
  std::vector<double> slot_logodds(num_slots, 0.0);
  ScopeTable absence_universe;

  // Per-group net Stage I vote, presence - weighted absence: the staged
  // path's memo of the difference the scalar reference recomputes per edge
  // (same subtraction on the same inputs, so the same bits).
  std::vector<double> net_vote(num_groups, 0.0);

  const auto refresh_votes = [&]() {
    absence_universe.Clear();
    for (uint32_t g = 0; g < num_groups; ++g) {
      const ExtractorScope& scope = matrix.extractor_scope(g);
      votes[g] = ComputeVotes(r.extractor_recall[g], r.extractor_q[g],
                              scope.absence_weight);
      absence_universe.AddForScope(scope, votes[g].weighted_absence);
      net_vote[g] = votes[g].presence - votes[g].weighted_absence;
    }
  };
  refresh_votes();

  // ---- Kernel streams ----
  const bool vectorized = config.kernel == kernels::Kind::kVectorized;

  // Stage II gate: source support only (structure is static).
  std::vector<uint8_t> covered_mask(num_slots, 0);
  for (size_t s = 0; s < num_slots; ++s) {
    covered_mask[s] = r.source_supported[matrix.slot_source(s)];
  }

  // Stage II memo streams of the vectorized kind, plus the MAP (Eq. 27)
  // weight stream its staging reads in place of p(C|X).
  std::optional<ValueLayer> value_layer;
  std::vector<double> wc_stream;
  if (vectorized) {
    value_layer.emplace(matrix, config.value_model, config.num_false_override,
                        r.source_supported, slot_popularity);
    if (!config.weighted_value_votes) wc_stream.resize(num_slots, 0.0);
  }

  // Per-slot (predicate, website) pair ids, assigned in slot order
  // (deterministic). They key the dense p(C=1) mass, and the vectorized
  // kind's Stage I memo of the per-pair absence total: slots sharing a
  // scope pair share one SumCovering lookup.
  std::vector<uint32_t> slot_pair(num_slots);
  std::vector<uint32_t> pair_pred;
  std::vector<uint32_t> pair_site;
  std::unordered_map<uint64_t, uint32_t> pair_ids;
  for (size_t s = 0; s < num_slots; ++s) {
    const uint32_t pred = matrix.slot_predicate(s);
    const uint32_t site = matrix.slot_website(s);
    const auto [it, inserted] = pair_ids.emplace(
        PackPredSite(pred, site), static_cast<uint32_t>(pair_pred.size()));
    if (inserted) {
      pair_pred.push_back(pred);
      pair_site.push_back(site);
    }
    slot_pair[s] = it->second;
  }
  std::vector<double> pair_absence(vectorized ? pair_pred.size() : 0, 0.0);
  SlotMass slot_mass(matrix, slot_pair, pair_ids);

  Mutex delta_mutex;
  // Stage I intercept; 0 unless calibrating. The vectorized kind's solve
  // warm-starts from the previous iteration's value.
  double tau = 0.0;

  for (int iteration = 1; iteration <= config.max_iterations; ++iteration) {
    double max_delta = 0.0;
    const auto note_delta = [&](double d) {
      MutexLock lock(delta_mutex);
      max_delta = std::max(max_delta, d);
    };

    // ============ Stage I: extraction correctness p(C|X), Eq. 15 ============
    {
      dataflow::StageTimers::Scope t(timers, "I.ExtCorr");
      // Log-odds per slot, before the shared calibration intercept. The
      // staged path sweeps the contiguous per-slot edge ranges in blocks
      // (conf[e] * net_vote[group]) and memoizes the absence total per
      // (predicate, website) pair; the per-slot edge sum stays sequential
      // in edge order, so both kinds run the same float program.
      if (vectorized) {
        for (size_t pid = 0; pid < pair_pred.size(); ++pid) {
          pair_absence[pid] =
              absence_universe.SumCovering(pair_pred[pid], pair_site[pid]);
        }
        dataflow::ForRange(executor, num_slots, [&](size_t begin, size_t end) {
          kernels::EmScratch scratch;
          size_t s = begin;
          while (s < end) {
            const uint32_t eb = matrix.SlotExtractions(s).first;
            uint32_t ee = matrix.SlotExtractions(s).second;
            size_t s2 = s + 1;
            while (s2 < end) {
              const uint32_t se = matrix.SlotExtractions(s2).second;
              if (se - eb > kernels::kStageBlock) break;
              ee = se;
              ++s2;
            }
            scratch.edge_terms.resize(ee - eb);
            kernels::StageEdgeTerms(conf.data(), matrix.ext_group().data(),
                                    net_vote.data(), eb, ee,
                                    scratch.edge_terms.data());
            for (; s < s2; ++s) {
              double vcc = pair_absence[slot_pair[s]];
              const auto [b2, e2] = matrix.SlotExtractions(s);
              for (uint32_t e = b2; e < e2; ++e) {
                vcc += scratch.edge_terms[e - eb];
              }
              slot_logodds[s] = vcc + Logit(r.slot_alpha[s]);
            }
          }
        });
      } else {
        dataflow::ForRange(executor, num_slots, [&](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) {
            double vcc = absence_universe.SumCovering(matrix.slot_predicate(s),
                                                      matrix.slot_website(s));
            const auto [eb, ee] = matrix.SlotExtractions(s);
            for (uint32_t e = eb; e < ee; ++e) {
              const uint32_t g = matrix.ext_group()[e];
              vcc += static_cast<double>(conf[e]) *
                     (votes[g].presence - votes[g].weighted_absence);
            }
            slot_logodds[s] = vcc + Logit(r.slot_alpha[s]);
          }
        });
      }

      // Shared intercept: mean p(C|X) is pinned to the expected provided
      // fraction (see multilayer_config.h and core/calibration.h). The
      // reference kind runs the literal bisection; the vectorized kind
      // replays it from a bracket found by Newton sweeps warm-started at
      // the previous iteration's tau, and lands on the same bits. Every
      // sweep runs through the deterministic blocked reduction, so tau is
      // bit-identical for every thread count.
      if (config.calibrate_correctness && num_slots > 0) {
        const double target = Clamp(config.expected_provided_fraction,
                                    0.01, 0.99);
        tau = vectorized
                  ? SolveIntercept(executor, slot_logodds, target, tau).tau
                  : SolveInterceptLiteral(executor, slot_logodds, target).tau;
      }

      dataflow::ForRange(executor, num_slots, [&](size_t begin, size_t end) {
        double local_delta = 0.0;
        for (size_t s = begin; s < end; ++s) {
          const double c = Sigmoid(slot_logodds[s] + tau);
          local_delta = std::max(local_delta,
                                 std::fabs(c - r.slot_correct_prob[s]));
          r.slot_correct_prob[s] = c;
        }
        note_delta(local_delta);
      });
    }

    // Per-scope mass of p(C=1), the recall denominator of Eq. 33.
    slot_mass.Accumulate(r.slot_correct_prob);

    // ============ Stage II: triple truth p(V_d|X), Eqs. 21/25 ============
    {
      dataflow::StageTimers::Scope t(timers, "II.TriplePr");
      if (value_layer) {
        // Per-slot correctness weight: the Eq. 25 soft weight, or its MAP
        // threshold.
        const double* wc_ptr = r.slot_correct_prob.data();
        if (!config.weighted_value_votes) {
          for (size_t s = 0; s < num_slots; ++s) {
            wc_stream[s] = r.slot_correct_prob[s] > 0.5 ? 1.0 : 0.0;
          }
          wc_ptr = wc_stream.data();
        }
        note_delta(value_layer->Run(
            r.source_accuracy, wc_ptr, covered_mask.data(), executor,
            r.slot_value_prob.data(), r.slot_covered.data(),
            r.item_unobserved_value_prob.data()));
      } else {
        dataflow::ForRange(executor, num_items, [&](size_t begin, size_t end) {
          double local_delta = 0.0;
          kernels::EmScratch scratch;
          for (size_t i = begin; i < end; ++i) {
            const auto [b, e] = matrix.ItemSlots(i);
            const int n = ItemNumFalse(matrix, config.num_false_override, i);
            scratch.votes.resize(e - b);
            for (uint32_t s = b; s < e; ++s) {
              const uint32_t w = matrix.slot_source(s);
              double vote = 0.0;
              if (r.source_supported[w]) {
                const double wc =
                    config.weighted_value_votes
                        ? r.slot_correct_prob[s]
                        : (r.slot_correct_prob[s] > 0.5 ? 1.0 : 0.0);
                if (config.value_model == ValueModel::kAccu) {
                  vote = wc * SourceVote(r.source_accuracy[w], n);
                } else {
                  const double a = ClampProbability(r.source_accuracy[w]);
                  vote = wc * (std::log(a / (1.0 - a)) -
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
          note_delta(local_delta);
        });
      }
    }

    // ============ Stage III: source accuracy A_w, Eq. 27/28 ============
    if (config.update_source_accuracy) {
      dataflow::StageTimers::Scope t(timers, "III.SrcAccu");
      dataflow::ForGroups(executor, num_sources, [&](size_t w) {
        if (!r.source_supported[w]) return;  // Stays at initial value.
        const auto [b, e] = matrix.SourceSlots(static_cast<uint32_t>(w));
        const uint32_t* idx = matrix.source_slot_index().data() + b;
        // Eq. 28 weights every slot by p(C=1|X); Eq. 27 is the MAP variant
        // (only C-hat = 1 slots count, as a masked tally so the lane
        // assignment stays positional across kernel kinds).
        const kernels::Tally tally =
            config.weighted_value_votes
                ? kernels::TallyIndexed(idx, e - b, r.slot_correct_prob.data(),
                                        r.slot_value_prob.data())
                : kernels::TallyMap(idx, e - b, r.slot_correct_prob.data(),
                                    r.slot_value_prob.data());
        if (tally.den > 1e-12) {
          r.source_accuracy[w] = clampP(tally.num / tally.den);
        }
      });
    }

    // ---- Prior update for alpha (Eq. 26), Section 3.3.4 ----
    if (config.update_alpha &&
        iteration >= config.alpha_update_start_iteration) {
      dataflow::ForRange(executor, num_slots, [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          const double v = r.slot_value_prob[s];
          const double a_src = r.source_accuracy[matrix.slot_source(s)];
          double false_mass = (1.0 - v) * (1.0 - a_src);
          if (config.alpha_update_rule == AlphaUpdateRule::kDomainNormalized) {
            const int n = ItemNumFalse(matrix, config.num_false_override,
                                       matrix.slot_item(s));
            false_mass /= std::max(1, n);
          }
          r.slot_alpha[s] = clampP(v * a_src + false_mass);
        }
      });
    }

    // ============ Stage IV: extractor quality, Eqs. 32-33 + Eq. 7 ============
    if (config.update_extractor_quality) {
      dataflow::StageTimers::Scope t(timers, "IV.ExtQuality");
      dataflow::ForGroups(executor, num_groups, [&](size_t g) {
        if (!r.extractor_supported[g]) return;
        const auto [b, e] = matrix.ExtractorEdges(static_cast<uint32_t>(g));
        const kernels::Tally tally = kernels::TallyEdges(
            matrix.extractor_edge_index().data() + b, e - b, conf.data(),
            matrix.ext_slots().data(), r.slot_correct_prob.data());
        const double sum_joint = tally.num;
        const double sum_conf = tally.den;
        const ExtractorScope& scope =
            matrix.extractor_scope(static_cast<uint32_t>(g));
        const double denom_r = slot_mass.ForGroup(static_cast<uint32_t>(g)) *
                               scope.absence_weight;
        if (sum_conf > 1e-12) {
          r.extractor_precision[g] = clampP(sum_joint / sum_conf);
        }
        if (denom_r > 1e-12) {
          r.extractor_recall[g] = clampP(sum_joint / denom_r);
        }
        // Eq. 7, with a stability guard: Q is capped at R. An extractor that
        // would extract unprovided triples more readily than provided ones
        // carries no signal (Q = R zeroes both votes, like E5 in Table 3);
        // letting Q exceed R flips absence votes into positive evidence and
        // destabilizes EM.
        r.extractor_q[g] = std::min(
            QFromPrecisionRecall(r.extractor_precision[g],
                                 r.extractor_recall[g], config.gamma),
            r.extractor_recall[g]);
      });
    }

    refresh_votes();
    r.iterations = iteration;
    if (max_delta < config.convergence_tol) {
      r.converged = true;
      break;
    }
  }

  return r;
}

}  // namespace kbt::core
