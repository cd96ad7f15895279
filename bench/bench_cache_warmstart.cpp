// Warm-start benchmark of the persistent compiled-artifact cache.
//
// The KBT setting re-analyzes a mostly-fixed extraction cube session after
// session; before the disk cache, every new process paid the full
// granularity + compile cost again. With kbt::cache, the first session
// persists its CompiledMatrix + GroupAssignment (content-addressed by
// io::DatasetFingerprint x compile options) and later sessions load them:
//
//   cold_compile_seconds  — Granularity + Compile stages of a cold run;
//   save_seconds          — encoding + atomic write of the artifacts;
//   load_seconds          — read + decode + verify (CRC, fingerprints,
//                           assignment replay) into a fresh pipeline;
//   warm_compile_seconds  — Granularity + Compile stages of the run after
//                           the load (the residual: stages see a full
//                           cache and do no compilation work).
//
// The bench also asserts the loaded artifacts are bit-for-bit
// interchangeable: the warm report must equal the cold one exactly.
// Results land in BENCH_cache.json for the perf-trend tooling.
//
// Usage: bench_cache_warmstart [--smoke]   (--smoke: tiny cube for CI)
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "kbt/kbt.h"

namespace {

using namespace kbt;

double StageSeconds(const api::TrustReport& report, const char* name) {
  for (const auto& [stage, seconds] : report.stage_seconds) {
    if (stage == name) return seconds;
  }
  return 0.0;
}

bool ReportsEqual(const api::TrustReport& a, const api::TrustReport& b) {
  return a.inference.slot_value_prob == b.inference.slot_value_prob &&
         a.inference.slot_correct_prob == b.inference.slot_correct_prob &&
         a.inference.source_accuracy == b.inference.source_accuracy &&
         a.inference.extractor_q == b.inference.extractor_q &&
         a.counts.num_slots == b.counts.num_slots &&
         a.counts.num_sources == b.counts.num_sources;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // A cube whose compilation visibly dominates a decode pass.
  exp::SyntheticConfig config;
  config.num_sources = smoke ? 25 : 400;
  config.num_extractors = smoke ? 4 : 8;
  config.num_subjects = smoke ? 20 : 60;
  config.num_predicates = smoke ? 5 : 8;
  config.seed = 2015;
  const exp::SyntheticData synthetic = exp::GenerateSynthetic(config);

  api::Options options;
  options.granularity = api::Granularity::kFinest;
  options.multilayer.max_iterations = 1;  // Compile costs, not EM, matter.

  const std::string dir =
      (std::filesystem::temp_directory_path() / "kbt_bench_cache_store")
          .string();
  std::filesystem::remove_all(dir);

  // ---- Cold session: compile from the raw cube, persist on the side ----
  auto cold = api::PipelineBuilder()
                  .FromDataset(synthetic.data)
                  .WithOptions(options)
                  .Build();
  if (!cold.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }
  if (const Status s = cold->EnableDiskCache(dir); !s.ok()) {
    std::fprintf(stderr, "EnableDiskCache failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  const auto cold_report = cold->Run();  // compiles AND auto-saves
  if (!cold_report.ok()) {
    std::fprintf(stderr, "cold run failed: %s\n",
                 cold_report.status().ToString().c_str());
    return 1;
  }
  const double cold_compile = StageSeconds(*cold_report, "Granularity") +
                              StageSeconds(*cold_report, "Compile");

  // Explicit re-save, timed in isolation (encode + write + rename).
  const double save_start = obs::MonotonicSeconds();
  if (const Status s = cold->SaveCompiledArtifacts(); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double save_seconds = obs::MonotonicSeconds() - save_start;

  // ---- Warm session: a fresh pipeline over the same content ----
  auto warm = api::PipelineBuilder()
                  .FromDataset(synthetic.data)
                  .WithOptions(options)
                  .Build();
  if (!warm.ok()) {
    std::fprintf(stderr, "warm build failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }
  if (const Status s = warm->EnableDiskCache(dir); !s.ok()) {
    std::fprintf(stderr, "warm EnableDiskCache failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  const double load_start = obs::MonotonicSeconds();
  if (const Status s = warm->LoadCompiledArtifacts(); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double load_seconds = obs::MonotonicSeconds() - load_start;
  const auto warm_report = warm->Run();
  if (!warm_report.ok()) {
    std::fprintf(stderr, "warm run failed: %s\n",
                 warm_report.status().ToString().c_str());
    return 1;
  }
  const double warm_compile = StageSeconds(*warm_report, "Granularity") +
                              StageSeconds(*warm_report, "Compile");

  // Loaded artifacts must be interchangeable with compiled ones.
  if (!ReportsEqual(*cold_report, *warm_report)) {
    std::fprintf(stderr,
                 "warm report differs from cold report — loaded artifacts "
                 "are not bit-for-bit interchangeable\n");
    return 1;
  }

  uintmax_t artifact_bytes = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    artifact_bytes += file.file_size();
  }
  const double warm_total = load_seconds + warm_compile;
  const double speedup = warm_total > 0 ? cold_compile / warm_total : 0.0;

  exp::PrintBanner("Persistent cache: warm start vs cold compile");
  std::printf("cube: %zu observations -> %zu slots, %u sources, %u extractor "
              "groups; artifact file: %.1f KiB\n",
              synthetic.data.size(), cold_report->counts.num_slots,
              cold_report->counts.num_sources,
              cold_report->counts.num_extractor_groups,
              static_cast<double>(artifact_bytes) / 1024.0);
  exp::TablePrinter table({"Path", "Seconds"});
  table.AddRow({"cold granularity+compile",
                exp::TablePrinter::Fmt(cold_compile, 4)});
  table.AddRow({"save (encode+write)",
                exp::TablePrinter::Fmt(save_seconds, 4)});
  table.AddRow({"load (read+decode+verify)",
                exp::TablePrinter::Fmt(load_seconds, 4)});
  table.AddRow({"warm granularity+compile",
                exp::TablePrinter::Fmt(warm_compile, 4)});
  table.Print();
  std::printf("\nwarm start %.1fx faster than the cold compile it replaces "
              "(load %.3f ms + residual %.3f ms vs %.3f ms)\n",
              speedup, load_seconds * 1e3, warm_compile * 1e3,
              cold_compile * 1e3);

  // ---- Machine-readable output for the perf trajectory ----
  bench::BenchJsonWriter writer("cache_warmstart", smoke);
  writer.AddMetadata("observations",
                     static_cast<double>(synthetic.data.size()));
  writer.AddMetadata("slots",
                     static_cast<double>(cold_report->counts.num_slots));
  writer.AddMetric("artifact_bytes", static_cast<double>(artifact_bytes),
                   "bytes");
  writer.AddMetric("cold_compile_seconds", cold_compile, "seconds");
  writer.AddMetric("save_seconds", save_seconds, "seconds");
  writer.AddMetric("load_seconds", load_seconds, "seconds");
  writer.AddMetric("warm_compile_seconds", warm_compile, "seconds");
  writer.AddMetric("speedup", speedup, "ratio");
  const bool wrote = writer.WriteFile("BENCH_cache.json");
  std::filesystem::remove_all(dir);
  return wrote ? 0 : 1;
}
