// Reproduces Table 7: relative running time of one MULTILAYER iteration and
// of the preparation step, for three granularity strategies on a heavily
// skewed KV simulation:
//   Normal       — finest granularity, no preparation;
//   Split        — SPLITANDMERGE with merging disabled;
//   Split&Merge  — full SPLITANDMERGE (m=5).
// Stage scheduling mirrors MapReduce: one task per source / extractor
// group, so giant groups serialize a stage until they are split.
//
// Each strategy is one facade pipeline run with StageTimers attached; the
// stage totals also land in BENCH_table7.json for trend tooling.
//
// On top of the strategy table, the bench compares the two EM kernel kinds
// (src/kernels/): scalar_reference vs vectorized on the Normal pipeline,
// with a HARD bitwise parity gate (any posterior/accuracy bit mismatch
// exits 1), per-iteration GB/s under the bytes-touched model below, and a
// roofline note — all recorded under "kernels" in BENCH_table7.json.
//
// --smoke runs the same program on KvSimConfig::Small() (CI's check.sh
// gate); the default is the skewed Table 7 corpus.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "kbt/kbt.h"
#include "kernels/kernel_kind.h"

namespace {

using namespace kbt;

// ---- Bytes-touched model (per EM iteration) ----
//
// Counts each stream once per pass, gathers at element width, no cache
// reuse credit — a deliberate lower bound on traffic, so the GB/s figures
// are conservative:
//   per slot:  Stage II staging  mask 8 + weight 8 + idx 4 + vote-table
//              gather 8 + staged write 8                      = 36 B
//              item finisher     votes read 8 + posterior write 8 +
//              covered write 1                                 = 17 B
//              Stage III tally   idx 4 + weight 8 + posterior 8 = 20 B
//              Stage I           log-odds write 8 + alpha read 8 = 16 B
//   per edge:  Stage I staging   conf 4 + group 4 + net gather 8 +
//              term write 8                                    = 24 B
//              Stage IV tally    edge idx 4 + conf 4 + slot gather 4 +
//              correctness gather 8                            = 20 B
constexpr double kBytesPerSlotIter = 36 + 17 + 20 + 16;
constexpr double kBytesPerEdgeIter = 24 + 20;
// The E/M passes the kernel comparison times (II.TriplePr + III.SrcAccu)
// touch the per-slot streams only.
constexpr double kEmPassBytesPerSlot = 36 + 17 + 20;

double IterGbps(size_t num_slots, size_t num_edges, double iter_seconds) {
  if (iter_seconds <= 0.0) return 0.0;
  const double bytes = double(num_slots) * kBytesPerSlotIter +
                       double(num_edges) * kBytesPerEdgeIter;
  return bytes / iter_seconds / 1e9;
}

struct StrategyTiming {
  double prep_source = 0.0;
  double prep_extractor = 0.0;
  double ext_corr = 0.0;
  double triple_pr = 0.0;
  double src_accu = 0.0;
  double ext_quality = 0.0;
  size_t num_sources = 0;
  size_t num_groups = 0;
  size_t biggest_group = 0;
  size_t num_slots = 0;
  size_t num_edges = 0;

  double PrepTotal() const { return prep_source + prep_extractor; }
  double IterTotal() const {
    return ext_corr + triple_pr + src_accu + ext_quality;
  }
  double IterGbpsModel() const {
    return IterGbps(num_slots, num_edges, IterTotal());
  }
};

StrategyTiming RunStrategy(const exp::KvSimData& kv,
                           const api::Options& options,
                           dataflow::StageTimers& timers) {
  auto pipeline = api::PipelineBuilder()
                      .FromDataset(&kv.data)
                      .WithOptions(options)
                      .WithExecutor(&dataflow::DefaultExecutor())
                      .WithStageTimers(&timers)
                      .Build();
  if (!pipeline.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  const auto report = pipeline->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }

  StrategyTiming t;
  t.prep_source = timers.TotalSeconds("Prep.Source");
  t.prep_extractor = timers.TotalSeconds("Prep.Extractor");
  t.num_sources = report->counts.num_sources;
  t.num_groups = report->counts.num_extractor_groups;
  const auto* matrix = pipeline->compiled_matrix();
  t.num_slots = matrix->num_slots();
  t.num_edges = matrix->num_extractions();
  for (uint32_t g = 0; g < matrix->num_extractor_groups(); ++g) {
    const auto [b, e] = matrix->ExtractorEdges(g);
    t.biggest_group = std::max<size_t>(t.biggest_group, e - b);
  }
  const double iters = static_cast<double>(report->iterations());
  t.ext_corr = timers.TotalSeconds("I.ExtCorr") / iters;
  t.triple_pr = timers.TotalSeconds("II.TriplePr") / iters;
  t.src_accu = timers.TotalSeconds("III.SrcAccu") / iters;
  t.ext_quality = timers.TotalSeconds("IV.ExtQuality") / iters;
  return t;
}

std::string JsonStrategy(const StrategyTiming& t) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "      \"prep_source_seconds\": %.6f,\n"
      "      \"prep_extractor_seconds\": %.6f,\n"
      "      \"iter_ext_corr_seconds\": %.6f,\n"
      "      \"iter_triple_pr_seconds\": %.6f,\n"
      "      \"iter_src_accu_seconds\": %.6f,\n"
      "      \"iter_ext_quality_seconds\": %.6f,\n"
      "      \"iteration_total_seconds\": %.6f,\n"
      "      \"iteration_gbps\": %.3f,\n"
      "      \"num_sources\": %zu,\n"
      "      \"num_extractor_groups\": %zu,\n"
      "      \"biggest_group_edges\": %zu\n"
      "    }",
      t.prep_source, t.prep_extractor, t.ext_corr, t.triple_pr, t.src_accu,
      t.ext_quality, t.IterTotal(), t.IterGbpsModel(), t.num_sources,
      t.num_groups, t.biggest_group);
  return std::string(buf);
}

// ---- Kernel comparison (scalar_reference vs vectorized) ----

struct KernelTiming {
  double em_pass_seconds = 0.0;  // (II.TriplePr + III.SrcAccu) per iteration
  double em_pass_gbps = 0.0;
  double triple_pr_seconds = 0.0;  // II.TriplePr per iteration
  double src_accu_seconds = 0.0;   // III.SrcAccu per iteration
  api::TrustReport report;
  size_t num_slots = 0;
};

KernelTiming RunKernel(const exp::KvSimData& kv, const api::Options& base,
                       kernels::Kind kind) {
  api::Options options = base;
  options.granularity = api::Granularity::kFinest;
  options.multilayer.kernel = kind;
  dataflow::StageTimers timers;
  auto pipeline = api::PipelineBuilder()
                      .FromDataset(&kv.data)
                      .WithOptions(options)
                      .WithExecutor(&dataflow::DefaultExecutor())
                      .WithStageTimers(&timers)
                      .Build();
  if (!pipeline.ok()) {
    std::fprintf(stderr, "kernel build failed: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  auto report = pipeline->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "kernel run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  KernelTiming t;
  t.num_slots = pipeline->compiled_matrix()->num_slots();
  const double iters = static_cast<double>(report->iterations());
  t.triple_pr_seconds = timers.TotalSeconds("II.TriplePr") / iters;
  t.src_accu_seconds = timers.TotalSeconds("III.SrcAccu") / iters;
  t.em_pass_seconds = t.triple_pr_seconds + t.src_accu_seconds;
  if (t.em_pass_seconds > 0.0) {
    t.em_pass_gbps = double(t.num_slots) * kEmPassBytesPerSlot /
                     t.em_pass_seconds / 1e9;
  }
  t.report = std::move(*report);
  return t;
}

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The hard parity gate: both kernel kinds must have executed the same
/// float program. A single differing bit anywhere in the served state is a
/// contract violation (src/kernels/kernels.h), not a tolerance question.
void RequireKernelParity(const api::TrustReport& scalar,
                         const api::TrustReport& vectorized) {
  const core::MultiLayerResult& s = scalar.inference;
  const core::MultiLayerResult& v = vectorized.inference;
  const bool ok = BitsEqual(s.source_accuracy, v.source_accuracy) &&
                  BitsEqual(s.slot_correct_prob, v.slot_correct_prob) &&
                  BitsEqual(s.slot_value_prob, v.slot_value_prob) &&
                  BitsEqual(s.slot_alpha, v.slot_alpha) &&
                  BitsEqual(s.extractor_precision, v.extractor_precision) &&
                  BitsEqual(s.extractor_recall, v.extractor_recall) &&
                  BitsEqual(s.extractor_q, v.extractor_q) &&
                  BitsEqual(s.item_unobserved_value_prob,
                            v.item_unobserved_value_prob) &&
                  s.iterations == v.iterations;
  if (!ok) {
    std::fprintf(stderr,
                 "KERNEL PARITY VIOLATION: scalar_reference and vectorized "
                 "disagree bit-for-bit — see src/kernels/kernels.h\n");
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const auto kv = exp::BuildKvSim(smoke ? exp::KvSimConfig::Small()
                                        : exp::KvSimConfig::Skewed());
  if (!kv.ok()) {
    std::fprintf(stderr, "kv-sim failed\n");
    return 1;
  }
  std::printf("%s corpus: %zu sites, %zu pages, %zu observations\n",
              smoke ? "small (smoke)" : "skewed", kv->corpus.num_websites(),
              kv->corpus.num_pages(), kv->data.size());

  api::Options base;
  base.multilayer.num_false_override = 10;
  base.multilayer.max_iterations = 5;
  base.multilayer.convergence_tol = 0.0;  // Always run all 5 iterations.

  // ---- Normal: finest granularity, no prep ----
  api::Options normal_options = base;
  normal_options.granularity = api::Granularity::kFinest;
  dataflow::StageTimers normal_timers;
  const StrategyTiming normal = RunStrategy(*kv, normal_options,
                                            normal_timers);

  // ---- Split only ----
  api::Options split_options = base;
  split_options.granularity = api::Granularity::kSplitMerge;
  split_options.sm_source.min_size = 1;
  split_options.sm_source.enable_merge = false;
  split_options.sm_source.max_size = 500;
  split_options.sm_extractor = split_options.sm_source;
  dataflow::StageTimers split_timers;
  const StrategyTiming split = RunStrategy(*kv, split_options, split_timers);

  // ---- Split & merge ----
  api::Options sm_options = base;
  sm_options.granularity = api::Granularity::kSplitMerge;
  sm_options.sm_source.min_size = 5;
  sm_options.sm_source.max_size = 500;
  sm_options.sm_extractor = sm_options.sm_source;
  dataflow::StageTimers sm_timers;
  const StrategyTiming sm = RunStrategy(*kv, sm_options, sm_timers);

  // ---- Report, normalized by one Normal iteration (the paper's unit) ----
  const double unit = normal.IterTotal();
  const auto rel = [unit](double seconds) {
    return exp::TablePrinter::Fmt(seconds / unit, 3);
  };
  exp::PrintBanner("Table 7: relative running time (1 = one Normal iteration)");
  exp::TablePrinter table({"Task", "Normal", "Split", "Split&Merge"});
  table.AddRow({"Prep.Source", "0", rel(split.prep_source),
                rel(sm.prep_source)});
  table.AddRow({"Prep.Extractor", "0", rel(split.prep_extractor),
                rel(sm.prep_extractor)});
  table.AddRow({"Prep.Total", "0", rel(split.PrepTotal()),
                rel(sm.PrepTotal())});
  table.AddRow({"I.ExtCorr", rel(normal.ext_corr), rel(split.ext_corr),
                rel(sm.ext_corr)});
  table.AddRow({"II.TriplePr", rel(normal.triple_pr), rel(split.triple_pr),
                rel(sm.triple_pr)});
  table.AddRow({"III.SrcAccu", rel(normal.src_accu), rel(split.src_accu),
                rel(sm.src_accu)});
  table.AddRow({"IV.ExtQuality", rel(normal.ext_quality),
                rel(split.ext_quality), rel(sm.ext_quality)});
  table.AddRow({"Iteration total", rel(normal.IterTotal()),
                rel(split.IterTotal()), rel(sm.IterTotal())});
  table.AddRow({"Total (prep + 5 iters)",
                rel(5 * normal.IterTotal()),
                rel(split.PrepTotal() + 5 * split.IterTotal()),
                rel(sm.PrepTotal() + 5 * sm.IterTotal())});
  table.Print();

  std::printf("\ngroup structure: Normal %zu sources / %zu extractor groups "
              "(biggest %zu edges);\nSplit %zu/%zu (biggest %zu); "
              "Split&Merge %zu/%zu (biggest %zu)\n",
              normal.num_sources, normal.num_groups, normal.biggest_group,
              split.num_sources, split.num_groups, split.biggest_group,
              sm.num_sources, sm.num_groups, sm.biggest_group);
  std::printf(
      "\nPaper shape (Table 7): splitting giant extractor groups speeds up\n"
      "extractor-quality computation ~8.8x and halves overall time; merging\n"
      "adds modest prep cost without slowing iterations. The effect needs\n"
      "real parallelism — on few cores the straggler has nobody to stall.\n");

  // ---- Kernel comparison: scalar_reference vs vectorized ----
  const KernelTiming scalar_kernel =
      RunKernel(*kv, base, kernels::Kind::kScalarReference);
  const KernelTiming vector_kernel =
      RunKernel(*kv, base, kernels::Kind::kVectorized);
  RequireKernelParity(scalar_kernel.report, vector_kernel.report);
  const double em_speedup =
      vector_kernel.em_pass_seconds > 0.0
          ? scalar_kernel.em_pass_seconds / vector_kernel.em_pass_seconds
          : 0.0;
  exp::PrintBanner("EM kernels: E/M pass (II.TriplePr + III.SrcAccu)");
  exp::TablePrinter kernel_table(
      {"Kernel", "II s/iter", "III s/iter", "s/iteration", "GB/s (model)",
       "speedup"});
  kernel_table.AddRow({"scalar_reference",
                       exp::TablePrinter::Fmt(scalar_kernel.triple_pr_seconds,
                                              6),
                       exp::TablePrinter::Fmt(scalar_kernel.src_accu_seconds,
                                              6),
                       exp::TablePrinter::Fmt(scalar_kernel.em_pass_seconds, 6),
                       exp::TablePrinter::Fmt(scalar_kernel.em_pass_gbps, 3),
                       "1.000"});
  kernel_table.AddRow({"vectorized",
                       exp::TablePrinter::Fmt(vector_kernel.triple_pr_seconds,
                                              6),
                       exp::TablePrinter::Fmt(vector_kernel.src_accu_seconds,
                                              6),
                       exp::TablePrinter::Fmt(vector_kernel.em_pass_seconds, 6),
                       exp::TablePrinter::Fmt(vector_kernel.em_pass_gbps, 3),
                       exp::TablePrinter::Fmt(em_speedup, 3)});
  kernel_table.Print();
  std::printf("parity: bit-for-bit identical on %zu slots (hard gate)\n",
              scalar_kernel.num_slots);

  // ---- Machine-readable output for the perf trajectory ----
  bench::BenchJsonWriter writer("table7_efficiency", smoke);
  writer.AddMetadata("corpus_sites",
                     static_cast<double>(kv->corpus.num_websites()));
  writer.AddMetadata("corpus_pages",
                     static_cast<double>(kv->corpus.num_pages()));
  writer.AddMetadata("corpus_observations",
                     static_cast<double>(kv->data.size()));
  writer.AddMetric("unit_seconds", unit, "seconds");
  writer.AddMetric("em_pass_speedup", em_speedup, "ratio");
  writer.AddMetric("scalar_em_pass_seconds_per_iter",
                   scalar_kernel.em_pass_seconds, "seconds");
  writer.AddMetric("vectorized_em_pass_seconds_per_iter",
                   vector_kernel.em_pass_seconds, "seconds");
  std::string strategies = "{\n";
  strategies += "    \"normal\": " + JsonStrategy(normal) + ",\n";
  strategies += "    \"split\": " + JsonStrategy(split) + ",\n";
  strategies += "    \"split_merge\": " + JsonStrategy(sm) + "\n  }";
  writer.AddRawSection("strategies", strategies);
  char kernels_buf[2048];
  std::snprintf(
      kernels_buf, sizeof(kernels_buf),
      "{\n"
      "    \"num_slots\": %zu,\n"
      "    \"scalar_reference\": {\"em_pass_seconds_per_iter\": %.6f, "
      "\"em_pass_gbps\": %.3f, \"triple_pr_seconds_per_iter\": %.6f, "
      "\"src_accu_seconds_per_iter\": %.6f},\n"
      "    \"vectorized\": {\"em_pass_seconds_per_iter\": %.6f, "
      "\"em_pass_gbps\": %.3f, \"triple_pr_seconds_per_iter\": %.6f, "
      "\"src_accu_seconds_per_iter\": %.6f},\n"
      "    \"em_pass_speedup\": %.3f,\n"
      "    \"parity\": \"bitwise-identical\",\n"
      "    \"bytes_model\": \"lower bound: each stream counted once, "
      "gathers at element width, no cache-reuse credit; %d B/slot for the "
      "E/M pass\",\n"
      "    \"roofline_note\": \"the E/M pass runs at ~0.2 flop/byte, so it "
      "sits on the memory roof: once em_pass_gbps approaches this machine's "
      "STREAM-class bandwidth, further speedup must come from touching "
      "fewer bytes (layout, blocking), not from a faster arithmetic path; "
      "the vectorized kind's win is transcendental-call elision — the "
      "memoized per-source vote table (one log per source instead of one "
      "per slot) and the precompiled value grouping (one exp per distinct "
      "value instead of one per slot)\"\n"
      "  }",
      scalar_kernel.num_slots, scalar_kernel.em_pass_seconds,
      scalar_kernel.em_pass_gbps, scalar_kernel.triple_pr_seconds,
      scalar_kernel.src_accu_seconds, vector_kernel.em_pass_seconds,
      vector_kernel.em_pass_gbps, vector_kernel.triple_pr_seconds,
      vector_kernel.src_accu_seconds, em_speedup,
      int(kEmPassBytesPerSlot));
  writer.AddRawSection("kernels", kernels_buf);
  return writer.WriteFile("BENCH_table7.json") ? 0 : 1;
}
