// Reproduces Figure 6: the distribution of predicted extraction
// correctness p(C=1|X) for (a) triples with type errors (which are
// extraction mistakes by construction) and (b) triples the Freebase-like KB
// knows to be true. A good model pushes the former toward 0 and the latter
// toward high probabilities.
#include <cstdio>

#include "bench/bench_json.h"
#include "common/histogram.h"
#include "dataflow/parallel.h"
#include "eval/gold_standard.h"
#include "exp/kv_sim.h"
#include "exp/runners.h"
#include "exp/table_printer.h"
#include "extract/observation_matrix.h"
#include "granularity/assignments.h"
#include "kbt/obs.h"
#include "core/initialization.h"
#include "core/multilayer_model.h"

int main() {
  using namespace kbt;

  const auto kv = exp::BuildKvSim(exp::KvSimConfig::Default());
  if (!kv.ok()) {
    std::fprintf(stderr, "kv-sim failed: %s\n",
                 kv.status().ToString().c_str());
    return 1;
  }
  const eval::GoldStandard gold(kv->partial_kb, kv->corpus.world());

  // MULTILAYER+ at the finest granularity.
  const auto assignment = granularity::FinestAssignment(kv->data);
  const auto matrix = extract::CompiledMatrix::Build(kv->data, assignment);
  if (!matrix.ok()) {
    std::fprintf(stderr, "compile failed\n");
    return 1;
  }
  exp::RunnerOptions options;
  core::SmartInitOptions smart;
  smart.initialize_extractors = false;
  smart.min_labeled = 1;
  smart.smoothing = 1.0;
  const auto init = core::InitialQualityFromLabels(
      *matrix,
      [&gold](kb::DataItemId d, kb::ValueId v) { return gold.Label(d, v); },
      options.multilayer, smart);
  const auto result = core::MultiLayerModel::Run(
      *matrix, options.multilayer, init, &dataflow::DefaultExecutor());
  if (!result.ok()) {
    std::fprintf(stderr, "run failed\n");
    return 1;
  }

  obs::Histogram type_error(UniformProbabilityBucketEdges(20));
  obs::Histogram freebase_true(UniformProbabilityBucketEdges(20));
  for (size_t s = 0; s < matrix->num_slots(); ++s) {
    const kb::DataItemId item = matrix->item_id(matrix->slot_item(s));
    const kb::ValueId value = matrix->slot_value(s);
    if (gold.IsTypeError(item, value)) {
      type_error.Add(result->slot_correct_prob[s]);
    } else if (kv->partial_kb.Label(item, value) == kb::LcwaLabel::kTrue) {
      freebase_true.Add(result->slot_correct_prob[s]);
    }
  }

  exp::PrintBanner(
      "Figure 6: predicted extraction correctness by gold class");
  exp::TablePrinter table(
      {"p(C=1|X) bucket", "%type-error", "%Freebase-true"});
  for (size_t b = 0; b < type_error.num_buckets(); ++b) {
    char label[32];
    std::snprintf(label, sizeof(label), "[%.2f,%.2f)",
                  type_error.bucket_lower(b),
                  0.05 * static_cast<double>(b + 1));
    table.AddRow({label,
                  exp::TablePrinter::Fmt(100.0 * type_error.Fraction(b), 1),
                  exp::TablePrinter::Fmt(100.0 * freebase_true.Fraction(b),
                                         1)});
  }
  table.Print();

  // Headline statistics (Section 5.3.2).
  double te_below_01 = 0.0;
  double te_above_07 = 0.0;
  double fb_below_01 = 0.0;
  double fb_above_07 = 0.0;
  for (size_t b = 0; b < type_error.num_buckets(); ++b) {
    const double lower = type_error.bucket_lower(b);
    if (lower < 0.1) {
      te_below_01 += type_error.Fraction(b);
      fb_below_01 += freebase_true.Fraction(b);
    }
    if (lower >= 0.7) {
      te_above_07 += type_error.Fraction(b);
      fb_above_07 += freebase_true.Fraction(b);
    }
  }
  std::printf(
      "\ntype-error triples: %.0f%% below 0.1 (paper: 80%%), %.0f%% above "
      "0.7 (paper: 8%%)\nFreebase-true triples: %.0f%% below 0.1 (paper: "
      "26%%), %.0f%% above 0.7 (paper: 54%%)\n",
      100 * te_below_01, 100 * te_above_07, 100 * fb_below_01,
      100 * fb_above_07);

  bench::BenchJsonWriter writer("fig6_extraction_correctness", false);
  writer.AddMetric("type_error_below_01_fraction", te_below_01, "ratio");
  writer.AddMetric("type_error_above_07_fraction", te_above_07, "ratio");
  writer.AddMetric("freebase_true_below_01_fraction", fb_below_01, "ratio");
  writer.AddMetric("freebase_true_above_07_fraction", fb_above_07, "ratio");
  return writer.WriteFile("BENCH_fig6.json") ? 0 : 1;
}
