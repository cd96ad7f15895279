// Reproduces Figure 7: the distribution of KBT scores across websites with
// at least 5 (expected) correctly extracted triples, read straight off a
// facade TrustReport. The paper observes a peak around 0.8 with 52% of
// websites above 0.8.
#include <cstdio>

#include "bench/bench_json.h"
#include "kbt/kbt.h"

int main() {
  using namespace kbt;

  const auto kv = exp::BuildKvSim(exp::KvSimConfig::Default());
  if (!kv.ok()) {
    std::fprintf(stderr, "kv-sim failed: %s\n",
                 kv.status().ToString().c_str());
    return 1;
  }
  api::Options options;
  options.granularity = api::Granularity::kFinest;
  options.multilayer.num_false_override = 10;
  auto pipeline = api::PipelineBuilder()
                      .FromDataset(&kv->data)
                      .WithOptions(options)
                      .WithExecutor(&dataflow::DefaultExecutor())
                      .Build();
  if (!pipeline.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 pipeline.status().ToString().c_str());
    return 1;
  }
  const auto report = pipeline->Run();
  if (!report.ok()) return 1;
  const auto& scores = report->website_kbt;

  obs::Histogram hist(UniformProbabilityBucketEdges(20));
  size_t scored = 0;
  size_t above_08 = 0;
  for (const auto& s : scores) {
    if (!s.HasScore(5.0)) continue;
    ++scored;
    hist.Add(s.kbt);
    if (s.kbt > 0.8) ++above_08;
  }

  exp::PrintBanner("Figure 7: distribution of website KBT (evidence >= 5)");
  exp::TablePrinter table({"KBT bucket", "%websites"});
  for (size_t b = 0; b < hist.num_buckets(); ++b) {
    char label[32];
    std::snprintf(label, sizeof(label), "[%.2f,%.2f)", hist.bucket_lower(b),
                  0.05 * static_cast<double>(b + 1));
    table.AddRow({label, exp::TablePrinter::Fmt(100.0 * hist.Fraction(b), 1)});
  }
  table.Print();
  std::printf(
      "\n%zu of %zu websites have >= 5 expected correctly-extracted triples\n"
      "(paper: 5.6M of 26M sites); %.0f%% of them have KBT > 0.8 (paper: "
      "52%%).\n",
      scored, scores.size(),
      scored > 0 ? 100.0 * static_cast<double>(above_08) /
                       static_cast<double>(scored)
                 : 0.0);

  bench::BenchJsonWriter writer("fig7_kbt_distribution", false);
  writer.AddMetadata("websites", static_cast<double>(scores.size()));
  writer.AddMetric("scored_websites", static_cast<double>(scored), "count");
  writer.AddMetric("kbt_above_08_fraction",
                   scored > 0 ? static_cast<double>(above_08) /
                                    static_cast<double>(scored)
                              : 0.0,
                   "ratio");
  return writer.WriteFile("BENCH_fig7.json") ? 0 : 1;
}
