#ifndef KBT_CORE_MULTILAYER_CONFIG_H_
#define KBT_CORE_MULTILAYER_CONFIG_H_

#include <cstdint>

#include "kernels/kernel_kind.h"

namespace kbt::core {

/// How the alpha prior (Eq. 26) treats the false-value branch.
enum class AlphaUpdateRule : uint8_t {
  /// Eq. 26 verbatim: alpha = vA + (1-v)(1-A). Reproduces Example 3.3's
  /// printed numbers, but is unnormalized over the value domain (a source
  /// with A=0.6 would "provide" each of n false values with prob 0.4); on
  /// noisy cubes this inflates the prior of hallucinated slots and can
  /// destabilize EM once some A_w dips below 0.5.
  kPaperEq26 = 0,
  /// Consistent with the generative model's Eq. 5: the false branch is
  /// divided by n, alpha = vA + (1-v)(1-A)/n. Stable default.
  kDomainNormalized = 1,
};

/// How the value layer models false values.
enum class ValueModel : uint8_t {
  /// ACCU (Eq. 5): the n false values are equally likely.
  kAccu = 0,
  /// POPACCU: false values follow their empirical popularity in the observed
  /// data. The paper found POPACCU does not compose with the improved
  /// weighted estimator (Section 5.1.2), so kAccu is the default.
  kPopAccu = 1,
};

/// All knobs of the multi-layer inference (Algorithm 1). Defaults follow the
/// paper's experimental settings (Section 5.1.2): n comes from the data (the
/// paper sets 10), gamma = 0.25, 5 iterations, improved weighted estimation,
/// prior updates from the 3rd iteration, confidence-weighted extractions.
struct MultiLayerConfig {
  // ---- Iteration control ----
  int max_iterations = 5;
  /// Convergence when max |delta p| over slots falls below this.
  double convergence_tol = 1e-4;

  // ---- Priors / initial parameter values (Section 3.1) ----
  /// Initial p(C_wdv = 1) prior. The paper states alpha = 0.5 but also sets
  /// gamma = p(C_wdv=1) = 0.25 in Eq. 7 — the same quantity. Using the
  /// gamma-consistent value keeps iteration dynamics stable (alpha = 0.5
  /// lets the extractor-precision feedback loop drive every posterior to 1
  /// on sparse cubes); the worked-example tests pin 0.5 explicitly.
  double initial_alpha = 0.25;
  double default_source_accuracy = 0.8;  // A_w
  double default_recall = 0.8;           // R_e
  double default_q = 0.2;                // Q_e
  /// Method-of-moments calibration of the *initial* recall: when no initial
  /// extractor quality is supplied, R_e starts at
  /// min(default_recall, extractions-per-slot / applicable-groups-per-slot)
  /// so that iteration 1's absence evidence matches the observed extraction
  /// density. With the paper's fixed R=0.8 on sparse cubes (effective
  /// recall ~0.3), iteration 1 drives every p(C|X) toward 0, the M-step
  /// then reads "extractors are noise" and EM lands in a degenerate fixed
  /// point. Q_e is started at min(default_q, R0/2) for the same reason.
  bool adaptive_initial_recall = true;
  /// gamma = p(C_wdv = 1) used to derive Q from P and R via Eq. (7).
  double gamma = 0.25;

  // ---- Estimation-procedure variants (the Table 6 ablations) ----
  /// Section 3.3.3: weight value votes by p(C_wdv=1|X) instead of using the
  /// MAP estimate C-hat. Also selects Eq. 28 over Eq. 27 in the M step.
  bool weighted_value_votes = true;
  /// Section 3.3.4: re-estimate alpha per slot via Eq. 26.
  bool update_alpha = true;
  /// First iteration (1-based) at which alpha updates kick in; the paper
  /// starts at the third iteration.
  int alpha_update_start_iteration = 3;
  AlphaUpdateRule alpha_update_rule = AlphaUpdateRule::kDomainNormalized;
  /// Section 3.5: use confidences as soft evidence. When false, extractions
  /// are thresholded at `confidence_threshold` (the Table 6 "I(X>phi)" row).
  bool use_confidence_weights = true;
  double confidence_threshold = 0.0;

  ValueModel value_model = ValueModel::kAccu;

  /// Pins the one unidentifiable degree of freedom of the joint EM: the
  /// global scale of the extraction-correctness posteriors. Each iteration,
  /// a shared intercept tau is fit so that the mean of p(C_wdv=1|X) over
  /// observed slots equals `expected_provided_fraction`; without it the
  /// coupled updates (c -> P,Q -> votes -> c and c -> A -> alpha -> c) are
  /// bistable and drift toward all-provided or all-noise fixed points on
  /// sparse cubes. Disabled by the worked-example tests, which check the
  /// raw one-iteration posteriors of Tables 3-4.
  ///
  /// tau is defined by a fixed program (core/calibration.h): 60 bisection
  /// steps over [-30, 30] on the blocked-sum mean. The scalar reference
  /// runs it literally; the vectorized kind brackets tau with Newton
  /// sweeps warm-started at the previous iteration's tau and replays the
  /// 60 steps, sweeping only midpoints the bracket cannot decide. Both
  /// give the same bits on every thread count.
  bool calibrate_correctness = true;
  /// Target mean of p(C|X) across observed slots: roughly the fraction of
  /// extracted (w,d,v) slots that the page really provides.
  double expected_provided_fraction = 0.4;

  // ---- Domain size ----
  /// Overrides the per-item n when >= 1 (the paper uses n=10 for the
  /// multi-layer model); < 1 uses each item's schema-provided n.
  int num_false_override = -1;

  // ---- Coverage semantics (Section 5.1.1 Cov) ----
  /// Source groups with fewer slots keep their default accuracy and cast no
  /// value votes; items whose every slot is unsupported get no prediction.
  int min_source_support = 3;
  /// Extractor groups with fewer extraction edges keep default quality (they
  /// still cast votes, at default strength).
  int min_extractor_support = 3;

  // ---- Parameter freezing (tests / diagnostics) ----
  /// When false, A_w stays at its initial value (the paper's worked
  /// examples assume fixed qualities).
  bool update_source_accuracy = true;
  /// When false, P_e/R_e/Q_e stay at their initial values.
  bool update_extractor_quality = true;

  // ---- Numeric guards ----
  double min_probability = 1e-4;
  double max_probability = 1.0 - 1e-4;

  // ---- Kernel selection ----
  /// Which EM inner-loop implementation runs the E/M passes. Both kinds are
  /// bit-for-bit identical (see src/kernels/kernels.h); scalar_reference is
  /// the always-compiled oracle the parity suite checks the vectorized path
  /// against.
  kernels::Kind kernel = kernels::DefaultKind();
};

}  // namespace kbt::core

#endif  // KBT_CORE_MULTILAYER_CONFIG_H_
